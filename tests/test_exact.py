import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from kaleidobilliards import exact
from kaleidobilliards.errors import RankDeficiencyError
from kaleidobilliards.exact import (
    EnergyLevel,
    energy_levels,
    excited_basis,
    ground_state,
    mu_sweep,
    project_anti_invariant,
    real_spherical_harmonic,
)
from kaleidobilliards.groups import degeneracy, group_from_masses, lambda_spectrum
from kaleidobilliards.polynomials import HomogeneousPolynomial, linear_form
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


def test_monomial_degree_limit_raises(h3):
    # one rule from lambda 86 on, for every order; the factorial ratio of the
    # old normalization was subnormal at (86, 86) and 0 at (90, -90)
    assert np.isfinite(real_spherical_harmonic(85, 85)._dense).all()
    for lam, mu in ((86, 86), (86, 0), (90, -90), (100, 85)):
        with pytest.raises(ValueError, match="monomial harmonics stop at degree 85"):
            real_spherical_harmonic(lam, mu)
    assert degeneracy(86, h3) == 0  # raises although there is no state to convert
    with pytest.raises(ValueError, match="monomial harmonics stop at degree 85"):
        excited_basis(86, h3)


def test_harmonics_orthogonal_within_degree():
    lam = 8
    polys = [real_spherical_harmonic(lam, mu) for mu in range(-lam, lam + 1)]
    for i in range(0, len(polys), 5):
        for j in range(0, len(polys), 7):
            want = 1.0 if i == j else 0.0
            assert polys[i].sphere_inner(polys[j]) == pytest.approx(want, abs=1e-10)


def test_mu_sweep_order():
    assert mu_sweep(2) == [0, 1, -1, 2, -2]


def _legendre_tails(mu, lam_max):
    """rho^(lam-mu) d^mu P_lam / dx^mu (x = z3/rho), homogenized, lam = mu..lam_max.

    (lam-mu) S_lam = (2 lam - 1) z3 S_{lam-1} - (lam-1+mu) r^2 S_{lam-2},
    started from S_mu = (2mu-1)!!.
    """
    z3 = linear_form((0, 0, 1))
    r2 = HomogeneousPolynomial.from_dict(
        2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}
    )
    df = 1.0
    for k in range(2 * mu - 1, 0, -2):
        df *= k
    prev2, prev1 = None, HomogeneousPolynomial.constant(df)
    yield prev1
    for lam in range(mu + 1, lam_max + 1):
        cur = (2.0 * lam - 1.0) * (z3 * prev1)
        if lam > mu + 1:
            cur = cur - (lam - 1.0 + mu) * (r2 * prev2)
        prev2, prev1 = prev1, (1.0 / (lam - mu)) * cur
        yield prev1


def _factorial_harmonics(lam_max):
    """{(lam, mu): rho^lam Y_{lam,mu}} for lam <= lam_max, built with factorials:
    (2mu-1)!!-scaled Legendre tails times the sectoral factor (z1 + i z2)^mu
    and the normalization sqrt((2 lam + 1)/(4 pi) (lam - mu)!/(lam + mu)!),
    Condon-Shortley phase included.
    """
    z1, z2 = linear_form((1, 0, 0)), linear_form((0, 1, 0))
    re, im = HomogeneousPolynomial.constant(1.0), HomogeneousPolynomial(0)
    out = {}
    for mu in range(lam_max + 1):
        for lam, tail in enumerate(_legendre_tails(mu, lam_max), start=mu):
            ratio = 1.0
            for k in range(lam - mu + 1, lam + mu + 1):
                ratio /= k
            norm = math.sqrt((2 * lam + 1) / (4.0 * math.pi) * ratio)
            if mu == 0:
                out[lam, 0] = norm * tail
            else:
                signed = math.sqrt(2.0) * norm * (-1.0) ** mu
                out[lam, mu] = signed * (re * tail)
                out[lam, -mu] = signed * (im * tail)
        re, im = z1 * re - z2 * im, z1 * im + z2 * re
    return out


def test_harmonic_matrix_matches_factorial_construction():
    # measured worst 1.4e-14 (lambda 60); both sit within 1e-14 of a
    # longdouble run of the recurrence
    want = _factorial_harmonics(60)
    for lam in range(61):
        for row, mu in zip(exact._harmonic_matrix(lam), mu_sweep(lam)):
            ref = want[lam, mu]._coeff_vector()
            assert np.abs(row - ref).max() <= 1e-13 * np.abs(ref).max(), (lam, mu)


def test_cached_harmonic_matrix_is_read_only():
    for cached in (exact._solid_harmonics(3), exact._half_pi_d(3), exact._quarter_turn(3)):
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    # every call returns its own polynomial
    real_spherical_harmonic(3, 1)._dense[:] = 0.0
    assert not real_spherical_harmonic(3, 1).is_zero()


@pytest.mark.parametrize("lam", range(13))
def test_harmonics_at_matches_polynomial_harmonics(lam):
    # the pointwise antisymmetry check trusts this column labelling
    pts = exact._fibonacci_points(40)
    values = exact._harmonics_at(lam, pts)
    for j, mu in enumerate(mu_sweep(lam)):
        want = real_spherical_harmonic(lam, mu).evaluate(pts)
        np.testing.assert_allclose(values[:, j], want, rtol=0, atol=1e-12)


# -- reflection matrices ----------------------------------------------------------

def _sphere_grid(lam):
    """Gauss-Legendre x trapezoid points and weighted harmonics W Y(X).

    The quadrature is exact to degree 2*lam, so Y(X)^T W Y(X) = I.
    """
    z, w = np.polynomial.legendre.leggauss(lam + 1)
    phi = 2.0 * math.pi * np.arange(2 * lam + 1) / (2 * lam + 1)
    z, phi = (g.ravel() for g in np.meshgrid(z, phi, indexing="ij"))
    rho = np.sqrt(1.0 - z * z)
    points = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    weights = np.repeat(w, 2 * lam + 1) * (2.0 * math.pi / (2 * lam + 1))
    return points, weights[:, None] * exact._harmonics_at(lam, points)


# K = R_y(-pi/2) takes z to -x
_QUARTER_TURN = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def _quadrature_quarter_turn(lam):
    """J = M(K) = Y(X)^T W Y(K X), the turned grid evaluated once."""
    points, weighted = _sphere_grid(lam)
    return weighted.T @ exact._harmonics_at(lam, points @ _QUARTER_TURN.T)


def _quadrature_reflection(lam, root):
    """D(s) = Y(sX)^T W Y(X), the reflected grid evaluated once per generator."""
    points, weighted = _sphere_grid(lam)
    return exact._harmonics_at(lam, exact._reflect(points, root)).T @ weighted


@pytest.mark.parametrize("lam", [*range(31), 45, 60, 85])
def test_quarter_turn_matches_quadrature(lam):
    # Risbo's recursion against the sphere quadrature: measured worst 5.2e-14
    got = exact._quarter_turn(lam)
    assert np.abs(got - _quadrature_quarter_turn(lam)).max() <= 1e-13


def test_quarter_turn_and_reflections_orthogonal_past_the_monomial_limit(a3, c3, h3):
    # measured 1.4e-15 for J and at most 3.6e-15 for D(s) at lambda 121
    lam = 121
    eye = np.eye(2 * lam + 1)
    turn = exact._quarter_turn(lam)
    assert np.abs(turn.T @ turn - eye).max() <= 1e-13
    for group in (a3, c3, h3):
        for root in group.simple_roots:
            d = exact._reflection_matrix(lam, root)
            assert np.abs(d.T @ d - eye).max() <= 1e-13, group.spec.name


REFLECTION_DEGREES = [0, 1, 2, 17, 30, 45, 60]


@pytest.mark.parametrize("lam", REFLECTION_DEGREES)
def test_reflection_matrix_matches_quadrature(lam, a3, c3, h3):
    for group in (a3, c3, h3):
        for root in group.simple_roots:
            got = exact._reflection_matrix(lam, root)
            want = _quadrature_reflection(lam, root)
            assert np.abs(got - want).max() <= 1e-12, (group.spec.name, lam)


@pytest.mark.parametrize("lam", REFLECTION_DEGREES)
def test_reflection_matrix_is_a_reflection(lam, a3, c3, h3):
    # a reflection keeps lam + 1 dimensions of the degree-lam harmonics and
    # negates lam: orthogonal, symmetric, involutive, trace 1
    eye = np.eye(2 * lam + 1)
    for group in (a3, c3, h3):
        for root in group.simple_roots:
            d = exact._reflection_matrix(lam, root)
            assert np.abs(d.T @ d - eye).max() <= 1e-12
            assert np.abs(d - d.T).max() <= 1e-12
            assert np.abs(d @ d - eye).max() <= 1e-12
            assert np.trace(d) == pytest.approx(1.0, abs=1e-12)


def test_reflection_matrix_at_the_poles():
    # theta = 0 or pi and phi from atan2 at the axes; a root this short
    # normalizes to a z-component that rounds above 1, past acos's domain
    tiny = np.array([0.0, 0.0, 7.025106264669213e-156])
    assert (tiny / np.linalg.norm(tiny))[2] > 1.0
    for lam in (1, 2, 17):
        for root in [*np.eye(3), *-np.eye(3), tiny]:
            got = exact._reflection_matrix(lam, root)
            want = _quadrature_reflection(lam, root / np.linalg.norm(root))
            assert np.abs(got - want).max() <= 1e-12, (lam, root)


def test_projection_tables_take_no_sphere_quadrature(monkeypatch):
    # the quarter turn comes from the recursion, for every group and generator
    calls = []
    harmonics_at = exact._harmonics_at

    def counted(lam, points):
        calls.append(lam)
        return harmonics_at(lam, points)

    monkeypatch.setattr(exact, "_harmonics_at", counted)
    exact._half_pi_d.cache_clear()
    exact._quarter_turn.cache_clear()
    for masses in (
        MassSequence((1, 1, 1, 1)),
        generate_family(coxeter_spec("C3"), 3, 1),
        symmetric_member(coxeter_spec("H3")),
    ):
        exact.projection_tables(group_from_masses(masses), 23)
    assert calls == []


def test_projection_tables_past_the_monomial_limit(h3):
    # lambda 121 (a = 4): measured null singular values up to 2.4e-14 and the
    # next one 0.746; the states change sign at points off any grid
    lam = 121
    basis = exact.projection_tables(h3, lam)
    assert basis.shape == (2 * lam + 1, degeneracy(lam, h3)) == (243, 4)
    eye = np.eye(2 * lam + 1)
    stacked = np.vstack([exact._reflection_matrix(lam, r) + eye for r in h3.simple_roots])
    ascending = np.linalg.svd(stacked, compute_uv=False)[::-1]
    assert ascending[3] <= 1e-12
    assert ascending[4] >= 0.4
    assert np.abs(basis.T @ basis - np.eye(4)).max() <= 1e-12
    points = exact._fibonacci_points(2 * (2 * lam + 1))
    values = exact._harmonics_at(lam, points) @ basis
    for root in h3.simple_roots:
        flipped = exact._harmonics_at(lam, exact._reflect(points, root)) @ basis
        assert np.abs(flipped + values).max() <= 1e-12 * np.abs(values).max()


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
    for det, m in zip(group.dets, group.matrices):
        total = total + float(det) * poly.compose(m)
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
    basis = exact.projection_tables(h3, lam)
    noise = np.random.default_rng(lam).standard_normal(basis.shape)
    monkeypatch.setattr(exact, "projection_tables", lambda group, k: basis + 1e-7 * noise)
    with pytest.raises(RankDeficiencyError, match="not anti-invariant"):
        excited_basis(lam, h3)


def test_projected_states_harmonic_and_anti_invariant(h3):
    states = excited_basis(21, h3)
    assert len(states) == 1
    poly = states[0].polynomial
    scale = poly.max_abs_coeff()
    assert poly.laplacian().max_abs_coeff() < 1e-9 * scale
    for det, m in zip(h3.dets[::17], h3.matrices[::17]):
        composed = poly.compose(m)
        target = poly * float(det)
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

def radial_wavefunction(nu: int, lam: float, rho, n_particles: int) -> float:
    """Hyperradial oscillator factor of the ladder's 2 nu + lambda term,
    unit-normalized with weight rho^(N-2)."""
    alpha = lam + (n_particles - 3) / 2.0
    log_a = 0.5 * (
        math.log(2.0) + math.lgamma(nu + 1) - math.lgamma(nu + lam + (n_particles - 1) / 2.0)
    )
    rho = np.asarray(rho, dtype=float)
    val = (
        math.exp(log_a)
        * rho**lam
        * eval_genlaguerre(nu, alpha, rho**2)
        * np.exp(-0.5 * rho**2)
    )
    return float(val) if val.ndim == 0 else val


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
    h3_levels = energy_levels(coxeter_spec("H3"), 17.0)
    assert h3_levels[0] == EnergyLevel(energy=17.0, n=0, nu=0, n1=0, n2=0, lam=15)
    a3_levels = energy_levels(coxeter_spec("A3"), 8.0)
    assert a3_levels[0].energy == 8.0 and a3_levels[0].lam == 6


def test_h3_level_count_below_20_brute_force():
    levels = energy_levels(coxeter_spec("H3"), 20.0)
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
    levels = energy_levels(coxeter_spec("C3"), 30.0)
    energies = [lv.energy for lv in levels]
    assert energies == sorted(energies)
    gen_a, gen_b = 4, 6
    for lv in levels:
        assert lv.lam == 9 + gen_a * lv.n1 + gen_b * lv.n2


def test_i2q_ladder():
    levels = energy_levels(coxeter_spec("I2(5)"), 14.0)
    lams = sorted({lv.lam for lv in levels})
    assert lams == [5, 10]
    assert levels[0].energy == pytest.approx(5 + 1.5)
