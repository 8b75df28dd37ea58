import math

import numpy as np
import pytest
from scipy.integrate import quad

from kaleidobilliards import exact
from kaleidobilliards.errors import RankDeficiencyError
from kaleidobilliards.exact import (
    EnergyLevel,
    energy_levels,
    excited_basis,
    ground_state,
    mu_sweep,
    project_anti_invariant,
    radial_wavefunction,
    real_spherical_harmonic,
)
from kaleidobilliards.groups import degeneracy, group_from_masses, lambda_spectrum
from kaleidobilliards.polynomials import HomogeneousPolynomial
from kaleidobilliards.masses import (
    MassSequence,
    coxeter_spec,
    generate_family,
    symmetric_member,
)


@pytest.fixture(scope="module")
def a3():
    return group_from_masses(MassSequence((1, 1, 1, 1)))


@pytest.fixture(scope="module")
def c3():
    return group_from_masses(generate_family(coxeter_spec("C3"), 3, 1))


@pytest.fixture(scope="module")
def h3():
    return group_from_masses(symmetric_member(coxeter_spec("H3")))


# -- real solid harmonics -------------------------------------------------------

def test_lowest_zonal_harmonics():
    y10 = real_spherical_harmonic(1, 0)
    assert y10.coefficients == pytest.approx({(0, 0, 1): math.sqrt(3 / (4 * math.pi))})
    y20 = real_spherical_harmonic(2, 0)
    n20 = math.sqrt(5 / (16 * math.pi))
    assert y20.coefficients[(0, 0, 2)] == pytest.approx(2 * n20)
    assert y20.coefficients[(2, 0, 0)] == pytest.approx(-n20)
    assert y20.coefficients[(0, 2, 0)] == pytest.approx(-n20)


@pytest.mark.parametrize("lam,mu", [(3, 2), (7, -5), (12, 0), (18, 9), (25, -25)])
def test_harmonics_are_harmonic_and_normalized(lam, mu):
    y = real_spherical_harmonic(lam, mu)
    assert y.degree == lam
    lap = y.laplacian()
    assert lap.max_abs_coeff() <= 1e-9 * max(y.max_abs_coeff(), 1.0)
    assert y.sphere_norm() == pytest.approx(1.0, abs=1e-10)


def test_harmonic_normalization_underflow_raises():
    # (lam - |mu|)! / (lam + |mu|)! is subnormal at (86, 86) and 0 at (90, -90),
    # where it used to turn the harmonic into the zero polynomial
    assert np.isfinite(real_spherical_harmonic(85, 85)._dense).all()
    for lam, mu in ((86, 86), (90, -90), (100, 85)):
        with pytest.raises(ValueError, match="underflows"):
            real_spherical_harmonic(lam, mu)


def test_harmonics_orthogonal_within_degree():
    lam = 8
    polys = [real_spherical_harmonic(lam, mu) for mu in range(-lam, lam + 1)]
    for i in range(0, len(polys), 5):
        for j in range(0, len(polys), 7):
            want = 1.0 if i == j else 0.0
            assert polys[i].sphere_inner(polys[j]) == pytest.approx(want, abs=1e-10)


def test_mu_sweep_order():
    assert mu_sweep(2) == [0, 1, -1, 2, -2]


def _uncached_legendre_tail(lam, mu):
    """The recurrence run from scratch, as before the tails were cached."""
    z3 = HomogeneousPolynomial.from_dict(1, {(0, 0, 1): 1.0})
    r2 = HomogeneousPolynomial.from_dict(
        2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    )
    df = 1.0
    for k in range(2 * mu - 1, 0, -2):
        df *= k
    prev2 = HomogeneousPolynomial.constant(df)
    if lam == mu:
        return prev2
    prev1 = (2 * mu + 1.0) * (z3 * prev2)
    for ell in range(mu + 2, lam + 1):
        cur = (1.0 / (ell - mu)) * (
            (2.0 * ell - 1.0) * (z3 * prev1) - (ell - 1.0 + mu) * (r2 * prev2)
        )
        prev2, prev1 = prev1, cur
    return prev1


def test_cached_legendre_tail_is_bit_identical():
    for lam in range(41):
        for mu in range(lam + 1):
            got = exact._legendre_tail(lam, mu)
            want = _uncached_legendre_tail(lam, mu)
            assert got.degree == want.degree == lam - mu
            assert np.array_equal(got._dense, want._dense), (lam, mu)


@pytest.mark.parametrize("lam", range(13))
def test_harmonics_at_matches_polynomial_harmonics(lam):
    # the pointwise antisymmetry check trusts this column labelling
    pts = exact._fibonacci_points(40)
    values = exact._harmonics_at(lam, pts)
    for j, mu in enumerate(mu_sweep(lam)):
        want = real_spherical_harmonic(lam, mu).evaluate(pts)
        np.testing.assert_allclose(values[:, j], want, rtol=0, atol=1e-12)


# -- ground states ----------------------------------------------------------------

def test_ground_state_degrees(a3, c3, h3):
    for group, degree in ((a3, 6), (c3, 9), (h3, 15)):
        state = ground_state(group)
        assert state.polynomial.degree == degree
        assert state.polynomial.sphere_norm() == pytest.approx(1.0, rel=1e-10)


def test_ground_state_antisymmetric_under_generators(h3):
    poly = ground_state(h3).polynomial
    scale = poly.max_abs_coeff()
    for root in h3.simple_roots:
        refl = np.eye(3) - 2.0 * np.outer(root, root)
        assert (poly.compose(refl) + poly).is_zero(1e-10 * scale)


def test_ground_state_vanishes_on_reflection_planes(h3):
    poly = ground_state(h3).polynomial
    rng = np.random.default_rng(0)
    normals = h3.reflection_normals()
    for normal in normals[::3]:
        # random unit vectors in the plane
        t = rng.normal(size=(5, 3))
        t -= np.outer(t @ normal, normal)
        t /= np.linalg.norm(t, axis=1)[:, None]
        assert np.abs(poly.evaluate(t)).max() < 1e-10


def test_ground_state_single_signed_in_coxeter_sector(h3):
    from kaleidobilliards.geometry import coincidence_normals, sector_geometry

    masses = symmetric_member(coxeter_spec("H3"))
    geom = sector_geometry(coincidence_normals(masses), (1, 2, 3, 4))
    rng = np.random.default_rng(1)
    w = rng.dirichlet((1, 1, 1), size=1000)
    pts = w @ geom.vertices
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    vals = ground_state(h3).polynomial.evaluate(pts)
    assert np.all(vals > 0) or np.all(vals < 0)


# -- projections ----------------------------------------------------------------

def test_projection_at_lambda0_reproduces_ground_state(a3, c3, h3):
    for group in (a3, c3, h3):
        gs = ground_state(group).polynomial
        best = None
        for mu in mu_sweep(group.spec.lambda0):
            proj = project_anti_invariant(group.spec.lambda0, mu, group)
            if proj.sphere_norm() > 1e-8:
                best = proj.l2_normalized()
                break
        assert best is not None
        diff = min((best - gs).max_abs_coeff(), (best + gs).max_abs_coeff())
        assert diff <= 1e-8 * gs.max_abs_coeff()


def test_projection_vanishes_off_spectrum(h3, a3):
    for mu in (0, 1, -1, 5):
        assert project_anti_invariant(14, mu, h3).sphere_norm() < 1e-8
    for mu in (0, 2, -3):
        assert project_anti_invariant(7, mu, a3).sphere_norm() < 1e-8


def _group_average(poly, group):
    """Det-weighted average of poly composed with every group element."""
    total = HomogeneousPolynomial(poly.degree)
    for el in group.elements:
        total = total + float(el.det) * poly.compose(el.matrix)
    return total * (1.0 / group.order)


# a = 2 (A3 18, C3 21), a = 1 (H3 21) and a = 0 (H3 16)
@pytest.mark.parametrize("name,lam", [("A3", 18), ("C3", 21), ("H3", 21), ("H3", 16)])
def test_projection_matches_group_average(name, lam, a3, c3, h3):
    group = {"A3": a3, "C3": c3, "H3": h3}[name]
    states = [s.polynomial for s in excited_basis(lam, group)]
    assert len(states) == degeneracy(lam, group)
    for mu in (0, 1, -2, lam - 1, -lam):
        harmonic = real_spherical_harmonic(lam, mu)
        want = _group_average(harmonic, group)
        scale = harmonic.max_abs_coeff()
        assert (project_anti_invariant(lam, mu, group) - want).is_zero(1e-9 * scale)
        # the group average lies in the span of the states ...
        rest = want
        for s in states:
            rest = rest - want.sphere_inner(s) * s
        assert rest.is_zero(1e-9 * scale), (name, lam, mu)
    # ... and the group average fixes every state
    for s in states:
        assert (_group_average(s, group) - s).is_zero(1e-9 * s.max_abs_coeff())


@pytest.mark.parametrize("lam", [7, 9, 18])  # a = 0, 1, 2 for A3
def test_character_count_above_null_space_raises(lam, monkeypatch):
    group = group_from_masses(MassSequence((1, 1, 1, 1)))  # no cached tables
    monkeypatch.setattr(exact, "degeneracy", lambda k, g: degeneracy(k, g) + 1)
    with pytest.raises(RankDeficiencyError, match="singular value"):
        excited_basis(lam, group)


@pytest.mark.parametrize("lam", [31, 45])  # a = 1, 2
def test_perturbed_projection_basis_is_not_anti_invariant(lam, h3, monkeypatch):
    basis = exact.projection_tables(h3, [lam])[lam]
    noise = np.random.default_rng(lam).standard_normal(basis.shape)
    monkeypatch.setitem(h3._projection_cache, lam, basis + 1e-7 * noise)
    with pytest.raises(RankDeficiencyError, match="not anti-invariant"):
        excited_basis(lam, h3)


def test_projected_states_harmonic_and_anti_invariant(h3):
    states = excited_basis(21, h3)
    assert len(states) == 1
    poly = states[0].polynomial
    scale = poly.max_abs_coeff()
    assert poly.laplacian().max_abs_coeff() < 1e-9 * scale
    for el in h3.elements[::17]:
        composed = poly.compose(el.matrix)
        target = poly * float(el.det)
        assert (composed - target).is_zero(1e-9 * scale)


def test_excited_basis_dimensions_match_characters(a3, c3, h3):
    # multiplicity-2/3 milestones alongside low-lying singlets
    cases = {
        "A3": (a3, [6, 9, 10, 12, 16, 18, 30]),
        "C3": (c3, [9, 13, 15, 21, 33]),
        "H3": (h3, [15, 21, 25, 45]),
    }
    for name, (group, lams) in cases.items():
        for lam in lams:
            states = excited_basis(lam, group)
            assert len(states) == degeneracy(lam, group), (name, lam)
            for i, si in enumerate(states):
                for j, sj in enumerate(states):
                    want = 1.0 if i == j else 0.0
                    got = si.polynomial.sphere_inner(sj.polynomial)
                    assert got == pytest.approx(want, abs=5e-7), (name, lam, i, j)


def test_expected_multiplicities():
    assert degeneracy(45, group_from_masses(symmetric_member(coxeter_spec("H3")))) == 2


def test_a3_16_has_unique_state(a3):
    states = excited_basis(16, a3)
    assert len(states) == 1


def test_excited_basis_dimension_full_sweep(a3, c3, h3):
    # every spectrum lambda <= 60 for all three groups
    for group in (a3, c3, h3):
        spectrum = lambda_spectrum(group.spec, 60)
        for lam, mult in spectrum.items():
            states = excited_basis(lam, group)
            assert len(states) == mult == degeneracy(lam, group), (group.spec.name, lam)


# -- radial factor ----------------------------------------------------------------

def test_radial_normalization_constant_n2():
    # nu=0, lam=0, N=2: A = sqrt(2/Gamma(1/2))
    got = radial_wavefunction(0, 0.0, 1.0, 2)
    expect = math.sqrt(2.0 / math.gamma(0.5)) * math.exp(-0.5)
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("nu,lam", [(0, 0.0), (1, 0.0), (2, 0.0), (0, 15.0), (2, 15.0)])
def test_radial_unit_normalization_by_quadrature(nu, lam):
    n = 4
    val, _ = quad(
        lambda r: radial_wavefunction(nu, lam, r, n) ** 2 * r ** (n - 2),
        0.0,
        np.inf,
        limit=200,
    )
    assert val == pytest.approx(1.0, rel=1e-8)


def test_radial_orthogonality():
    n = 4
    val, _ = quad(
        lambda r: radial_wavefunction(0, 15.0, r, n)
        * radial_wavefunction(1, 15.0, r, n)
        * r ** (n - 2),
        0.0,
        np.inf,
        limit=200,
    )
    assert abs(val) < 1e-9


def test_radial_non_integer_lambda():
    # effective lambda from the numerical solver is generally non-integer
    val = radial_wavefunction(1, 7.31, 1.3, 4)
    assert np.isfinite(val)


# -- energy ladder ----------------------------------------------------------------

def test_ground_energies():
    h3_levels = energy_levels(coxeter_spec("H3"), 17.0, 4)
    assert h3_levels[0] == EnergyLevel(energy=17.0, n=0, nu=0, n1=0, n2=0, lam=15)
    a3_levels = energy_levels(coxeter_spec("A3"), 8.0, 4)
    assert a3_levels[0].energy == 8.0 and a3_levels[0].lam == 6


def test_h3_level_count_below_20_brute_force():
    levels = energy_levels(coxeter_spec("H3"), 20.0, 4)
    brute = []
    for n in range(30):
        for nu in range(15):
            for n1 in range(10):
                for n2 in range(6):
                    lam = 15 + 6 * n1 + 10 * n2
                    e = n + 2 * nu + lam + 2.0
                    if e <= 20.0:
                        brute.append((e, n, nu, n1, n2))
    assert len(levels) == len(brute)
    assert all(lv.energy == lv.n + 2 * lv.nu + lv.lam + 2.0 for lv in levels)


def test_levels_sorted_and_consistent():
    levels = energy_levels(coxeter_spec("C3"), 30.0, 4)
    energies = [lv.energy for lv in levels]
    assert energies == sorted(energies)
    gen_a, gen_b = 4, 6
    for lv in levels:
        assert lv.lam == 9 + gen_a * lv.n1 + gen_b * lv.n2


def test_i2q_ladder():
    levels = energy_levels(coxeter_spec("I2(5)"), 14.0, 3)
    lams = sorted({lv.lam for lv in levels})
    assert lams == [5, 10]
    assert levels[0].energy == pytest.approx(5 + 1.5)


def test_wrong_particle_count_rejected():
    with pytest.raises(ValueError):
        energy_levels(coxeter_spec("H3"), 20.0, 3)
