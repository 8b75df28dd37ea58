import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import kaleidobilliards.billiard as billiard
import kaleidobilliards.pencil as pencil
import kaleidobilliards.sine_basis as sine_basis
from kaleidobilliards.billiard import (
    convergence_study,
    flatten_geometry,
    flatten_sector,
    octant_sector,
    operator_coefficients,
    solve_sector,
    spectrum_to_csv,
)
from kaleidobilliards.pencil import solve_spectrum
from kaleidobilliards.sine_basis import BasisTruncation, _quadrature_grid, assemble
from kaleidobilliards.errors import (
    ChartDomainError,
    EigensolverError,
    GeometryError,
    HemisphereError,
    QuadratureError,
)
from kaleidobilliards.exact import real_spherical_harmonic
from kaleidobilliards.geometry import (
    coincidence_normals,
    distinct_sector_orderings,
    geometry_from_inward_normals,
    sector_geometry,
)
from kaleidobilliards.groups import lambda_spectrum
from kaleidobilliards.masses import (
    MassSequence,
    coxeter_spec,
    feasibility_interval,
    generate_family,
    symmetric_member,
)

from closed_forms import birectangular_geometry, birectangular_levels

EQUAL = MassSequence((1, 1, 1, 1))
H3_SEQ = symmetric_member(coxeter_spec("H3"))


def exact_ladder(name, count):
    ladder = []
    for lam, mult in lambda_spectrum(coxeter_spec(name), 400).items():
        ladder.extend([lam] * mult)
    return np.array(sorted(ladder)[:count], dtype=float)


# -- flattening -------------------------------------------------------------------

CHART_MEMBERS = {
    "A3": EQUAL,
    "H3": H3_SEQ,
    "C3": MassSequence((3, 1, 2, 6)),
    "generic": MassSequence((1.3, 0.4, 2.7, 0.9)),
}
ORDERINGS = list(itertools.permutations((1, 2, 3, 4)))


def _vertex_corners(sec):
    """(s, t) of each geometry vertex under the chart."""
    proj = sec.geometry.vertices @ sec.frame.T
    return (proj[:, 1:] / proj[:, :1]) @ sec.affine.T + sec.offset


def test_right_angle_vertex_maps_to_reference_right_angle():
    for masses in CHART_MEMBERS.values():
        for ordering in ORDERINGS:
            sec = flatten_sector(masses, ordering)
            st = _vertex_corners(sec)
            k = int(np.argmin(np.abs(st - (-1.0, -1.0)).max(axis=1)))
            np.testing.assert_allclose(st[k], (-1.0, -1.0), atol=1e-12)
            assert sec.geometry.dihedral_angles[k] == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("member", ["H3", "generic"])
def test_chart_frame_lifts_corners_onto_sector_vertices(member):
    for ordering in ORDERINGS:
        sec = flatten_sector(CHART_MEMBERS[member], ordering)
        u, v = sec.to_uv(np.array([-1.0, -1.0, 1.0]), np.array([-1.0, 1.0, -1.0]))
        lifted = np.stack([np.ones(3), u, v], axis=1) @ sec.frame
        lifted /= np.linalg.norm(lifted, axis=1, keepdims=True)
        dist = np.linalg.norm(lifted[:, None, :] - sec.geometry.vertices[None, :, :], axis=2)
        assert dist.min(axis=1).max() < 1e-12


def test_inward_normals_are_normalized():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    scaled = sec.geometry.bounding_normals * np.array([[1.0], [1.1], [0.9]])
    got = geometry_from_inward_normals(scaled)
    assert got.area == pytest.approx(sec.geometry.area, rel=1e-12)
    np.testing.assert_allclose(got.vertices, sec.geometry.vertices, atol=1e-12)


def test_inward_normals_need_three_by_three():
    with pytest.raises(GeometryError):
        geometry_from_inward_normals(np.eye(3)[:2])


def test_flatten_requires_four_masses_and_valid_ordering():
    with pytest.raises(GeometryError):
        flatten_sector(MassSequence((1, 1, 1)), (1, 2, 3))
    with pytest.raises(GeometryError):
        flatten_sector(EQUAL, (1, 2, 2, 3))


def test_vertex_on_chart_equator_raises_hemisphere_error():
    # a near-hemisphere triangle: its vertices lie 1e-10 above the equator
    # of their centroid, inside the chart's 1e-9 margin
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    vertices = np.stack([np.cos(angles), np.sin(angles), np.full(3, 1e-10)], axis=1)
    vertices /= np.linalg.norm(vertices, axis=1, keepdims=True)
    inward = np.array([np.cross(vertices[(k + 1) % 3], vertices[(k + 2) % 3]) for k in range(3)])
    with pytest.raises(HemisphereError):
        flatten_geometry(geometry_from_inward_normals(inward))


@pytest.mark.parametrize("light", [2e-16, 1e-18, 1e-20])
def test_light_masses_chart_every_ordering(light):
    # a light mass m opens dihedral angles of order sqrt(m), far below the
    # 1e-8 rad that an arccosine of a dot product near -1 resolves
    seq = MassSequence((light, 1.0, 1.0, 1.0))
    for ordering in itertools.permutations((1, 2, 3, 4)):
        assert flatten_sector(seq, ordering).geometry.area > 0


def test_measure_pullback_reproduces_girard_area():
    # integral of sqrt(g) over the triangle equals the spherical area
    for sec in (
        flatten_sector(H3_SEQ, (1, 2, 3, 4)),
        flatten_sector(EQUAL, (2, 1, 3, 4)),
        octant_sector(),
    ):
        s, t, w = _quadrature_grid(80)
        val = float(sec.grid_weights(s, t, w)[0].sum())
        assert val == pytest.approx(sec.geometry.area, abs=1e-8)


def test_degenerate_masses_reported_not_hidden():
    # huge imbalance either raises at flattening or surfaces via the deltas
    try:
        sec = flatten_sector(MassSequence((1e6, 1.0, 1.0, 1.0)), (1, 2, 3, 4))
    except HemisphereError:
        return
    study = convergence_study(sec, (20, 30), k=20)
    assert np.isfinite(study.last_deltas).all()
    assert study.last_deltas.max() > 1e-6  # visibly unconverged, not silently exact


# -- operator ---------------------------------------------------------------------

def test_operator_at_chart_axis_point():
    # at the axis point u = v = 0 the sphere metric is flat: G = A A^T, b = 0
    sec = octant_sector()
    np.testing.assert_allclose(sec.offset, [-1 / 3, -1 / 3], atol=1e-15)
    c = {k: v[0] for k, v in operator_coefficients(sec, *sec.offset[:, None]).items()}
    g = sec.affine @ sec.affine.T
    np.testing.assert_allclose(
        [c["g_ss"], c["g_st"], c["g_tt"]], [g[0, 0], 2 * g[0, 1], g[1, 1]], rtol=1e-14
    )
    assert (c["b_s"], c["b_t"]) == (0.0, 0.0)


def test_operator_coefficients_vectorized_match_scalar_calls():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    rng = np.random.default_rng(11)
    w = rng.dirichlet((1.5, 1.5, 1.5), size=(5, 7))
    s, t = np.moveaxis(w @ np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]]), -1, 0)
    grid = operator_coefficients(sec, s, t)
    for i, j in np.ndindex(5, 7):
        # each point alone, as a one-element array and as a 0-d point
        for point in (operator_coefficients(sec, s[i, j:j + 1], t[i, j:j + 1]),
                      operator_coefficients(sec, s[i, j], t[i, j])):
            for key, values in grid.items():
                assert values.shape == (5, 7) and point[key].shape == (1,)
                assert point[key][0] == values[i, j], (key, i, j)


def test_operator_rejects_exterior_points():
    sec = flatten_sector(EQUAL, (1, 2, 3, 4))
    with pytest.raises(ChartDomainError):
        operator_coefficients(sec, np.array([0.5]), np.array([0.6]))
    with pytest.raises(ChartDomainError):
        operator_coefficients(sec, np.array([-0.5, 0.5]), np.array([-0.2, 0.6]))


def _pullback_and_derivatives(sec, poly, s, t):
    """Analytic value/gradient/hessian of p(z(s,t)) on the chart."""
    lam = poly.degree
    q = poly.compose(sec.frame.T)  # chart frame to world
    qs = q.gradient()
    qss = [g.gradient() for g in qs]
    u, v = sec.to_uv(s, t)
    pt = np.array([[1.0, u, v]])
    w2 = 1.0 + u * u + v * v
    p0 = q.evaluate(pt)[0]
    pu = qs[1].evaluate(pt)[0]
    pv = qs[2].evaluate(pt)[0]
    puu = qss[1][1].evaluate(pt)[0]
    puv = qss[1][2].evaluate(pt)[0]
    pvv = qss[2][2].evaluate(pt)[0]
    f = p0 * w2 ** (-lam / 2)
    fu = pu * w2 ** (-lam / 2) - lam * u * p0 * w2 ** (-lam / 2 - 1)
    fv = pv * w2 ** (-lam / 2) - lam * v * p0 * w2 ** (-lam / 2 - 1)
    fuu = (
        puu * w2 ** (-lam / 2)
        - 2 * lam * u * pu * w2 ** (-lam / 2 - 1)
        - lam * p0 * w2 ** (-lam / 2 - 1)
        + lam * (lam + 2) * u * u * p0 * w2 ** (-lam / 2 - 2)
    )
    fvv = (
        pvv * w2 ** (-lam / 2)
        - 2 * lam * v * pv * w2 ** (-lam / 2 - 1)
        - lam * p0 * w2 ** (-lam / 2 - 1)
        + lam * (lam + 2) * v * v * p0 * w2 ** (-lam / 2 - 2)
    )
    fuv = (
        puv * w2 ** (-lam / 2)
        - lam * (u * pv + v * pu) * w2 ** (-lam / 2 - 1)
        + lam * (lam + 2) * u * v * p0 * w2 ** (-lam / 2 - 2)
    )
    inv = np.linalg.inv(sec.affine)
    grad_uv = np.array([fu, fv])
    hess_uv = np.array([[fuu, fuv], [fuv, fvv]])
    grad_st = inv.T @ grad_uv
    hess_st = inv.T @ hess_uv @ inv
    return f, grad_st, hess_st


@pytest.mark.parametrize("ordering", [(1, 2, 3, 4), (2, 1, 3, 4)])
def test_operator_reproduces_harmonic_eigenvalue(ordering):
    sec = flatten_sector(H3_SEQ, ordering)
    rng = np.random.default_rng(7)
    for lam, mu in [(3, 1), (6, -4), (9, 0)]:
        poly = real_spherical_harmonic(lam, mu)
        for _ in range(7):
            # random interior point by corner barycenter
            w = rng.dirichlet((1.5, 1.5, 1.5))
            s, t = w @ np.array([[-1, -1], [-1, 1], [1, -1]])
            f, grad, hess = _pullback_and_derivatives(sec, poly, s, t)
            if abs(f) < 1e-6:
                continue
            c = {k: v[0] for k, v in operator_coefficients(sec, [s], [t]).items()}
            lap = (
                c["g_ss"] * hess[0, 0]
                + c["g_st"] * hess[0, 1]
                + c["g_tt"] * hess[1, 1]
                + c["b_s"] * grad[0]
                + c["b_t"] * grad[1]
            )
            assert lap == pytest.approx(-lam * (lam + 1) * f, rel=1e-8)


def test_operator_matches_finite_differences():
    sec = flatten_sector(EQUAL, (1, 2, 3, 4))
    poly = real_spherical_harmonic(4, 2)

    def f_of(s, t):
        u, v = sec.to_uv(s, t)
        q = poly.compose(sec.frame.T)
        w2 = 1.0 + u * u + v * v
        return q.evaluate(np.array([[1.0, u, v]]))[0] * w2 ** (-poly.degree / 2)

    s0, t0 = -0.35, -0.25
    h = 1e-4
    fss = (f_of(s0 + h, t0) - 2 * f_of(s0, t0) + f_of(s0 - h, t0)) / h**2
    ftt = (f_of(s0, t0 + h) - 2 * f_of(s0, t0) + f_of(s0, t0 - h)) / h**2
    fst = (
        f_of(s0 + h, t0 + h) - f_of(s0 + h, t0 - h) - f_of(s0 - h, t0 + h) + f_of(s0 - h, t0 - h)
    ) / (4 * h**2)
    fs = (f_of(s0 + h, t0) - f_of(s0 - h, t0)) / (2 * h)
    ft = (f_of(s0, t0 + h) - f_of(s0, t0 - h)) / (2 * h)
    c = {k: v[0] for k, v in operator_coefficients(sec, [s0], [t0]).items()}
    lap = c["g_ss"] * fss + c["g_st"] * fst + c["g_tt"] * ftt + c["b_s"] * fs + c["b_t"] * ft
    assert lap == pytest.approx(-4 * 5 * f_of(s0, t0), rel=1e-5)


# -- basis -----------------------------------------------------------------------

def _sine_factors(n_max: int, coord: np.ndarray, shift: float):
    """phi_n(x) = sin(n pi (x + shift)/2) and derivative, for n = 1..n_max."""
    arg = 0.5 * math.pi * (coord + shift)
    n = np.arange(1, n_max + 1)
    phase = n.reshape((n_max,) + (1,) * coord.ndim) * arg[None, ...]
    vals = np.sin(phase)
    ders = (0.5 * math.pi) * n.reshape((n_max,) + (1,) * coord.ndim) * np.cos(phase)
    return vals, ders


def _basis_function(n: int, m: int, s, t):
    """Antisymmetrized right-triangle Dirichlet mode h_{n,m}: the difference
    sin(n pi (s+1)/2) sin(m pi (t-1)/2) - (n <-> m) of the sine factors whose
    grid moments ``assemble`` takes."""
    phi, _ = _sine_factors(m, np.asarray(s, dtype=float), +1.0)
    psi, _ = _sine_factors(m, np.asarray(t, dtype=float), -1.0)
    return phi[n - 1] * psi[m - 1] - phi[m - 1] * psi[n - 1]


def test_basis_vanishes_on_all_boundaries():
    pts = np.linspace(-1, 1, 10)
    for n, m in [(1, 2), (2, 5), (4, 7)]:
        assert np.abs(_basis_function(n, m, -1.0, pts)).max() < 1e-12
        assert np.abs(_basis_function(n, m, pts, -1.0)).max() < 1e-12
        assert np.abs(_basis_function(n, m, pts, -pts)).max() < 1e-12


def test_basis_matches_eight_term_exponential_sum():
    rng = np.random.default_rng(8)
    for n, m in [(1, 2), (3, 8), (2, 9)]:
        s = rng.uniform(-1, 1, 20)
        t = rng.uniform(-1, 1, 20)
        total = np.zeros(20, dtype=complex)
        for sign_n, sign_m, swap, pref in [
            (-1, +1, False, +1), (-1, -1, False, -1), (+1, -1, False, +1),
            (+1, +1, False, -1), (-1, +1, True, -1), (-1, -1, True, +1),
            (+1, -1, True, -1), (+1, +1, True, +1),
        ]:
            a, b = (m, n) if swap else (n, m)
            total = total + pref * np.exp(
                0.5j * math.pi * (sign_n * a * (s + 1) + sign_m * b * (t - 1))
            )
        total = total / 4.0
        np.testing.assert_allclose(total.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            _basis_function(n, m, s, t), total.real, atol=1e-12
        )


def test_basis_orthonormal_under_flat_measure():
    # right-triangle eigenfunctions: <h_ab, h_cd> = delta over the triangle
    x, w = np.polynomial.legendre.leggauss(60)
    x01, w01 = 0.5 * (x + 1), 0.5 * w
    t = -1 + 2 * x01
    pairs = [(1, 2), (1, 3), (2, 3)]
    gram = np.zeros((3, 3))
    for i, (n1, m1) in enumerate(pairs):
        for j, (n2, m2) in enumerate(pairs):
            total = 0.0
            for tk, wk in zip(t, w01):
                smax = -tk
                ss = -1 + (x01 * (smax + 1))
                ws = w01 * (smax + 1)
                total += 2 * wk * np.sum(
                    ws * _basis_function(n1, m1, ss, tk) * _basis_function(n2, m2, ss, tk)
                )
            gram[i, j] = total
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_truncation_enumeration():
    trunc = BasisTruncation(3)
    assert trunc.index_pairs == ((1, 2), (1, 3), (2, 3))
    assert len(BasisTruncation(40)) == 40 * 39 // 2


@pytest.mark.parametrize("name", ["octant", "H3"])
def test_lower_truncation_is_the_leading_block(name):
    # a convergence study solves every truncation on the leading blocks of
    # its one top assembly
    sec = octant_sector() if name == "octant" else flatten_sector(H3_SEQ, (1, 3, 4, 2))
    low, top = BasisTruncation(9), BasisTruncation(14)
    n = len(low)
    assert low.index_pairs == top.index_pairs[:n]
    a_low, b_low = assemble(sec, low, 42)
    a_top, b_top = assemble(sec, top, 42)
    # the entries that vanish by symmetry are rounding noise of either sum
    for low_mat, top_mat in ((a_low, a_top), (b_low, b_top)):
        np.testing.assert_allclose(low_mat, top_mat[:n, :n], rtol=1e-13,
                                   atol=1e-13 * np.abs(low_mat).max())


# -- assembly ---------------------------------------------------------------------

def test_assemble_tiny_truncation_shapes():
    sec = octant_sector()
    a, b = assemble(sec, BasisTruncation(3), quadrature_order=12)
    assert a.shape == (3, 3) and b.shape == (3, 3)
    assert np.abs(a - a.T).max() < 1e-10 * np.abs(a).max()
    assert np.abs(b - b.T).max() < 1e-10 * np.abs(b).max()
    assert np.all(np.linalg.eigvalsh(b) > 0)


def test_assemble_enforces_quadrature_floor():
    with pytest.raises(QuadratureError):
        assemble(octant_sector(), BasisTruncation(10), quadrature_order=20)


def _reference_four_tensor(f1, f2, weight, g1, g2):
    """T[p,q,r,s] = sum W f1_p f2_q g1_r g2_s, one term per contraction."""
    n = f1.shape[0]
    q_eta = weight.shape[1]
    f1s = np.ascontiguousarray(f1.transpose(2, 0, 1))
    f2s = np.ascontiguousarray(f2.transpose(2, 1, 0))
    m = (f1s * weight.T[:, None, :]) @ f2s
    k = (g1.T[:, :, None] * g2.T[:, None, :]).reshape(q_eta, n * n)
    return (m.reshape(q_eta, n * n).T @ k).reshape(n, n, n, n)


def _reference_gather_pairs(t4, pairs):
    """The four fancy-index gathers of the antisymmetrized pair basis."""
    ni = np.array([p[0] - 1 for p in pairs])
    mi = np.array([p[1] - 1 for p in pairs])
    i_n, i_m = ni[:, None], mi[:, None]
    j_n, j_m = ni[None, :], mi[None, :]
    return (
        t4[i_n, j_n, i_m, j_m]
        - t4[i_n, j_m, i_m, j_n]
        - t4[i_m, j_n, i_n, j_m]
        + t4[i_m, j_m, i_n, j_n]
    )


def _reference_assemble(sector, trunc, order):
    """Four contractions and four gathers, with the cross term added to its transpose."""
    s, t, quad_w = _quadrature_grid(order)
    w_b, w_ss, w_st, w_tt = sector.grid_weights(s, t, quad_w)
    phi, dphi = _sine_factors(trunc.n_max, s, +1.0)
    psi, dpsi = _sine_factors(trunc.n_max, t, -1.0)
    pairs = trunc.index_pairs
    b = _reference_gather_pairs(_reference_four_tensor(phi, phi, w_b, psi, psi), pairs)
    a = _reference_gather_pairs(_reference_four_tensor(dphi, dphi, w_ss, psi, psi), pairs)
    cross = _reference_gather_pairs(_reference_four_tensor(dphi, phi, w_st, psi, dpsi), pairs)
    a += cross + cross.T
    a += _reference_gather_pairs(_reference_four_tensor(phi, phi, w_tt, dpsi, dpsi), pairs)
    return a, b


@pytest.mark.parametrize(
    "chart,order",
    [("outer_pair", 36), ("centroid", 36), ("outer_pair", 48), ("centroid", 48), ("octant", 60)],
)
def test_assemble_matches_four_gather_reference(chart, order):
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    if chart == "centroid":
        sec = flatten_geometry(sec.geometry)
    elif chart == "octant":
        sec = octant_sector()
    trunc = BasisTruncation(20 if chart == "octant" else 12)
    a, b = assemble(sec, trunc, order)
    a_ref, b_ref = _reference_assemble(sec, trunc, order)
    assert np.abs(a - a_ref).max() <= 1e-13 * np.abs(a_ref).max()
    assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def _reference_moment_tables(sector, n_max, order):
    """Moment tables from direct cos/sin of every frequency at every grid point."""
    s, t, quad_w = _quadrature_grid(order)
    w_b, w_ss, w_st, w_tt = sector.grid_weights(s, t, quad_w)
    freq = np.arange(2 * n_max + 1, dtype=float)
    alpha = (0.5 * math.pi * (s + 1.0)).T  # [eta, xi]
    theta = 0.5 * math.pi * (t - 1.0)
    weights = np.stack([w_b, w_ss, w_tt, w_st], axis=-1).transpose(1, 0, 2)
    moments = np.empty((order, len(freq), 4))  # [eta, a, weight]
    for start in range(0, order, 8):
        cols = slice(start, start + 8)
        phase = freq[None, :, None] * alpha[cols, None, :]  # [eta, a, xi]
        moments[cols, :, :3] = np.cos(phase) @ weights[cols, :, :3]
        moments[cols, :, 3:] = np.sin(phase) @ weights[cols, :, 3:]
    phase = theta[:, None] * freq[None, :]  # [eta, b]
    cos_t, sin_t = np.cos(phase), np.sin(phase)
    return {
        "b": moments[:, :, 0].T @ cos_t,
        "ss": moments[:, :, 1].T @ cos_t,
        "tt": moments[:, :, 2].T @ cos_t,
        "st": moments[:, :, 3].T @ sin_t,
    }


@pytest.mark.parametrize("n_max", [8, 90])
@pytest.mark.parametrize("name", ["octant", "H3"])
def test_moment_tables_match_direct_trig(name, n_max):
    # the alpha multiples come from the Chebyshev recurrence, not one cos
    # and one sin per frequency
    sec = octant_sector() if name == "octant" else flatten_sector(H3_SEQ, (1, 3, 4, 2))
    order = 3 * n_max
    tables = sine_basis.moment_tables(sec, n_max, order)
    reference = _reference_moment_tables(sec, n_max, order)
    assert tables.keys() == reference.keys()
    for key, ref in reference.items():
        assert tables[key].shape == ref.shape == (2 * n_max + 1, 2 * n_max + 1)
        assert np.abs(tables[key] - ref).max() <= 1e-14 * np.abs(ref).max(), key


def test_assemble_working_set_is_a_few_matrices():
    # no n^4 four-tensor and no (n, Q, Q) sine table: the four-tensor of
    # n_max 40 alone would be 20 MB, twice the two 780 x 780 matrices
    sec = octant_sector()
    assemble(sec, BasisTruncation(8), 24)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        a, b = assemble(sec, BasisTruncation(40), 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (a.nbytes + b.nbytes)


def test_study_holds_one_parity_block_at_a_time():
    # each block's pencil is dropped before the next is built: the study
    # peaked at 1.87-1.95 times one block's A + B (2.44 MB for 400 functions),
    # and at 2.88-2.97 times while every block was assembled before any solve
    sec = octant_sector()
    convergence_study(sec, (6, 8), 10)  # imports and caches outside the trace
    one_block = max(16 * len(block) ** 2
                    for block in sine_basis.chart_blocks(sec, BasisTruncation(40)))
    tracemalloc.start()
    try:
        convergence_study(sec, (30, 40), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * one_block


def _serial_assemble(sector, trunc, order):
    """A then B on the whole basis, each built and symmetrized in the caller's thread."""
    w = sine_basis.moment_tables(sector, trunc.n_max, order)
    whole = np.arange(len(trunc))
    a = sine_basis._pair_matrix([
        (1, 1, 0, 0, w["ss"]),
        (1, 0, 0, 1, w["st"]),
        (0, 1, 1, 0, w["st"]),
        (0, 0, 1, 1, w["tt"]),
    ], trunc, whole)
    b = sine_basis._pair_matrix([(0, 0, 0, 0, w["b"])], trunc, whole)
    sine_basis._symmetrize(a, "A")
    sine_basis._symmetrize(b, "B")
    return a, b


@pytest.mark.parametrize("name,n_max", [("octant", 40), ("H3", 30)])
def test_assemble_equals_serial_build(name, n_max):
    # B is built on a helper thread, with the arithmetic of a serial build
    sec = octant_sector() if name == "octant" else flatten_sector(H3_SEQ, (1, 3, 4, 2))
    trunc = BasisTruncation(n_max)
    threads = threading.active_count()
    a, b = assemble(sec, trunc, 3 * n_max)
    assert threading.active_count() == threads
    a_ref, b_ref = _serial_assemble(sec, trunc, 3 * n_max)
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)


@pytest.mark.parametrize("failing", ["B", "A", "AB"])
def test_assemble_raises_the_serial_build_error(monkeypatch, failing):
    # an asymmetric matrix fails the real check, on either thread; when both
    # fail, A's error is raised, as in a serial build that checks A first
    real = sine_basis._symmetrize

    def skewed(mat, name):
        if name in failing:
            mat[0, -1] += np.abs(mat).max()
        real(mat, name)

    monkeypatch.setattr(sine_basis, "_symmetrize", skewed)
    sec, trunc = octant_sector(), BasisTruncation(10)
    with pytest.raises(QuadratureError) as serial:
        _serial_assemble(sec, trunc, 30)
    threads = threading.active_count()
    with pytest.raises(QuadratureError) as threaded:
        assemble(sec, trunc, 30)
    assert threading.active_count() == threads
    assert str(threaded.value) == str(serial.value)
    assert str(threaded.value).startswith(f"{failing[0]} asymmetry")


def test_assemble_at_quadrature_floor_gives_definite_overlap():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    a, b = assemble(sec, BasisTruncation(12), quadrature_order=36)
    vals = solve_spectrum(a, b, 10)[0].levels
    assert len(vals) == 10 and vals[0] > 0


def test_trace_stable_under_quadrature_doubling():
    sec = flatten_sector(EQUAL, (1, 2, 3, 4))
    tr = []
    for order in (30, 60):
        _, b = assemble(sec, BasisTruncation(10), order)
        tr.append(np.trace(b))
    assert abs(tr[1] - tr[0]) / abs(tr[1]) < 1e-6


# -- parity blocks ----------------------------------------------------------------

def test_sine_pairs_have_the_parity_of_n_plus_m():
    # the swap (s, t) -> (t, s) sends alpha to theta + pi and theta to alpha - pi
    rng = np.random.default_rng(12)
    s, t = rng.uniform(-1.0, 1.0, (2, 400))
    s, t = s[s + t < 0.0], t[s + t < 0.0]
    for n_max in range(2, 13):
        for n, m in BasisTruncation(n_max).index_pairs:
            np.testing.assert_allclose(_basis_function(n, m, t, s),
                                       (-1) ** (n + m + 1) * _basis_function(n, m, s, t),
                                       rtol=0.0, atol=1e-12)


def _coxeter_sector(name, fraction):
    spec = coxeter_spec(name)
    masses = generate_family(spec, 1.0, fraction * feasibility_interval(spec)[1])
    return flatten_sector(masses, (1, 2, 3, 4))


def _stats_charts(masses):
    """The charts ``stats`` solves: one per sector class, by ``flatten_geometry``."""
    normals = coincidence_normals(masses)
    return [flatten_geometry(sector_geometry(normals, perm))
            for perm, _ in distinct_sector_orderings(masses)]


RISING = MassSequence((1, 2, 3, 4))
MIRROR_CHARTS = {
    "octant": lambda: [octant_sector()],
    "equal_masses": lambda: [flatten_sector(EQUAL, (1, 2, 3, 4))],
    # the one ordering class of distinct masses whose sector has a mirror
    "rising_1342": lambda: [flatten_sector(RISING, (1, 3, 4, 2))],
    "A3_coxeter": lambda: [_coxeter_sector("A3", f) for f in (0.2, 0.5, 0.8)],
}
ASYMMETRIC_CHARTS = {
    "C3_coxeter": lambda: [_coxeter_sector("C3", f) for f in (0.2, 0.5, 0.8)],
    "H3_coxeter": lambda: [_coxeter_sector("H3", f) for f in (0.2, 0.5, 0.8)],
    "H3_stats": lambda: _stats_charts(H3_SEQ),
    # flatten_geometry puts a vertex other than the right angle at (-1, -1)
    "equal_masses_stats": lambda: _stats_charts(EQUAL),
    "rising_orderings": lambda: [
        flatten_sector(RISING, perm) for perm in itertools.permutations((1, 2, 3, 4))
        if perm < perm[::-1] and perm != (1, 3, 4, 2)
    ],
}


@pytest.mark.parametrize("name", sorted(MIRROR_CHARTS))
def test_mirror_symmetric_charts_split_into_parity_blocks(name):
    trunc = BasisTruncation(9)
    parity = np.array(trunc.index_pairs).sum(axis=1) % 2
    for sec in MIRROR_CHARTS[name]():
        assert sine_basis._mirror_symmetric(sec)
        even, odd = sine_basis.chart_blocks(sec, trunc)
        assert np.array_equal(even, np.flatnonzero(parity == 0))
        assert np.array_equal(odd, np.flatnonzero(parity == 1))


@pytest.mark.parametrize("name", sorted(ASYMMETRIC_CHARTS))
def test_asymmetric_charts_keep_one_block(name):
    trunc = BasisTruncation(9)
    charts = ASYMMETRIC_CHARTS[name]()
    for sec in charts:
        assert not sine_basis._mirror_symmetric(sec)
        (whole,) = sine_basis.chart_blocks(sec, trunc)
        assert np.array_equal(whole, np.arange(len(trunc)))
    (top,) = convergence_study(charts[0], (8, 9), 4).solves[-1]
    assert top.size == len(trunc)


def test_truncation_2_has_one_parity_block():
    # (1, 2) is the only pair: its n + m is odd
    (block,) = sine_basis.chart_blocks(octant_sector(), BasisTruncation(2))
    assert np.array_equal(block, [0])
    study = convergence_study(octant_sector(), (2, 3, 6), 1)
    assert [[solve.size for solve in solves] for solves in study.solves] == [[1], [1, 2], [6, 9]]


@pytest.mark.parametrize("name,n_max", [("octant", 30), ("equal_masses", 24)])
def test_parity_blocks_are_sub_blocks_of_the_whole_pencil(name, n_max):
    (sec,) = MIRROR_CHARTS[name]()
    trunc = BasisTruncation(n_max)
    blocks = sine_basis.chart_blocks(sec, trunc)
    a, b = assemble(sec, trunc, 3 * n_max)
    pencils = assemble(sec, trunc, 3 * n_max, blocks)
    # the study's form: one call per block, all from one set of moment tables
    moments = sine_basis.moment_tables(sec, n_max, 3 * n_max)
    one_by_one = [assemble(sec, trunc, 3 * n_max, (block,), moments=moments)[0]
                  for block in blocks]
    for form in (pencils, one_by_one):
        for (a_block, b_block), block in zip(form, blocks, strict=True):
            cut = np.ix_(block, block)
            assert np.array_equal(a_block, a[cut]) and np.array_equal(b_block, b[cut])
    # the couplings dropped between the blocks are the quadrature error of
    # odd integrands: they move no low float64 level by more than 1e-11
    k = 60
    want = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[0, k - 1])
    got = np.sort(np.concatenate([
        scipy.linalg.eigh(a_block, b_block, eigvals_only=True) for a_block, b_block in pencils
    ]))[:k]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)
    # a split study's Ritz levels keep the Ritz slack of the whole pencil's
    study = convergence_study(sec, (n_max - 6, n_max), 20)
    assert [solve.size for solve in study.solves[-1]] == [len(block) for block in blocks]
    assert np.all(study.values >= want[:20] * (1.0 - 1.4e-8))
    np.testing.assert_allclose(study.values, want[:20], rtol=1.4e-8, atol=0.0)


def test_split_study_top_levels_equal_a_one_truncation_solve():
    # the lower truncation shares each block's storage but not the top bits
    study = convergence_study(octant_sector(), (30, 40), 10)
    assert np.array_equal(study.values, solve_sector(octant_sector(), 40, 10).values)


# -- spectra ----------------------------------------------------------------------

def test_octant_exact_spectrum():
    spec = solve_sector(octant_sector(), n_max=32, k=10)
    want = np.array([3, 5, 5, 7, 7, 7, 9, 9, 9, 9], dtype=float)
    assert np.abs(spec.effective_lambda - want).max() < 5e-4
    np.testing.assert_allclose(spec.values, want * (want + 1), rtol=2e-4)


# the first case is the octant; the others are corners of the H3 fixture's
# non-Coxeter sectors.  Measured at 30/40, k 40: the ground level lies 7e-6,
# 1.3e-5 and 1.4e-4 mean spacings above its closed form, and the window's
# worst level 0.005, 0.012 and 0.030 (windows of 40, 40 and 20 levels)
@pytest.mark.parametrize("ratio,window", [(0.5, 40), (0.4397, 40), (0.1790, 20)])
def test_birectangular_triangle_spectrum(ratio, window):
    alpha = ratio * math.pi
    sec = flatten_geometry(birectangular_geometry(alpha))
    assert sec.geometry.area == pytest.approx(alpha, rel=1e-12)
    study = convergence_study(sec, (30, 40), k=40)
    exact = birectangular_levels(alpha, 40)
    # Galerkin upper bounds, less the float32 Ritz error of 1.4e-8 relative
    assert np.all(study.values >= exact * (1.0 - 1.4e-8))
    miss = (study.values - exact) / (4.0 * math.pi / alpha)
    assert miss[0] <= 1e-3
    assert study.converged_count >= window
    # within the window's own drift bound, 0.05 mean spacings
    assert np.all(miss[:study.converged_count] <= 0.05)


@pytest.mark.parametrize(
    "name,masses",
    [
        ("A3", EQUAL),
        ("C3", generate_family(coxeter_spec("C3"), 3, 1)),
        ("H3", H3_SEQ),
    ],
)
def test_coxeter_sector_spectra_match_ladder(name, masses):
    sec = flatten_sector(masses, (1, 2, 3, 4))
    spec = solve_sector(sec, n_max=30, k=6)
    exact = exact_ladder(name, 6)
    assert np.abs(spec.effective_lambda - exact).max() < 5e-3


def test_inversion_congruent_orderings_share_spectra():
    sec1 = flatten_sector(H3_SEQ, (2, 1, 3, 4))
    sec2 = flatten_sector(H3_SEQ, (4, 3, 1, 2))
    s1 = solve_sector(sec1, 24, 20).values
    s2 = solve_sector(sec2, 24, 20).values
    np.testing.assert_allclose(s1, s2, rtol=1e-8)


def test_billiard_and_stats_corner_maps_agree():
    sec_billiard = flatten_sector(H3_SEQ, (2, 1, 3, 4))
    sec_stats = flatten_geometry(sec_billiard.geometry)
    s1 = solve_sector(sec_billiard, 36, 10).values
    s2 = solve_sector(sec_stats, 36, 10).values
    np.testing.assert_allclose(s1, s2, rtol=5e-4)


@pytest.mark.parametrize("name", ["A3", "C3", "H3"])
def test_family_members_share_coxeter_sector_spectrum(name):
    # the Coxeter sectors of one family are congruent, so their charts are
    # isometric and the discrete problems equal
    spec = coxeter_spec(name)
    r_max = feasibility_interval(spec)[1]
    s1, s2 = (
        solve_sector(flatten_sector(generate_family(spec, 1.0, f * r_max), (1, 2, 3, 4)), 20, 10)
        for f in (0.3, 0.7)
    )
    np.testing.assert_allclose(s1.values, s2.values, rtol=1e-12)


def test_variational_monotonicity_in_truncation():
    sec = flatten_sector(EQUAL, (1, 2, 3, 4))
    study = convergence_study(sec, (16, 20, 24), k=25)
    for prev, nxt in zip(study.spectra, study.spectra[1:]):
        assert np.all(nxt[:25] <= prev[:25] + 1e-9)


def test_convergence_study_assembles_once(monkeypatch):
    # one set of moment tables at the top truncation, then one assembly of
    # each parity block from them: the octant has two
    calls, tables = [], []
    real_assemble, real_tables = billiard.assemble, billiard.moment_tables

    def counting(*args, **kwargs):
        calls.append((args[1].n_max, len(args[3]), kwargs["moments"]))
        return real_assemble(*args, **kwargs)

    def counting_tables(*args):
        tables.append(real_tables(*args))
        return tables[-1]

    monkeypatch.setattr(billiard, "assemble", counting)
    monkeypatch.setattr(billiard, "moment_tables", counting_tables)
    convergence_study(octant_sector(), (10, 12, 14), k=8)
    assert len(tables) == 1
    assert [(n_max, count) for n_max, count, _ in calls] == [(14, 1), (14, 1)]
    assert all(moments is tables[0] for _, _, moments in calls)


def test_convergence_study_lower_spectra_are_submatrix_solves():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    study = convergence_study(sec, (12, 15, 18), k=30)
    for n_max, vals in zip(study.n_max_grid, study.spectra):
        direct = solve_spectrum(*assemble(sec, BasisTruncation(n_max), 54), 30)[0].levels
        np.testing.assert_allclose(vals, direct, rtol=1e-10)


def test_solve_sector_is_one_entry_study():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    study = convergence_study(sec, (14,), k=12)
    spec = solve_sector(sec, 14, 12)
    assert spec.n_max_grid == study.n_max_grid == (14,)
    assert np.array_equal(spec.values, study.values)
    assert np.array_equal(spec.effective_lambda, study.effective_lambda)
    # no drift, so no level is certified
    assert len(spec.window) == len(study.window) == 0
    assert spec.converged_count == study.converged_count == 0
    assert study.last_deltas is None
    assert study.deltas.shape == (0, 12)
    assert study.quadrature_order == 42


def test_convergence_study_records_quadrature_order():
    assert convergence_study(octant_sector(), (8, 10), k=4).quadrature_order == 30


@pytest.mark.parametrize("masses, ordering", [
    ((1e-6, 1, 1, 1), (2, 1, 3, 4)),  # the largest move found: 1.8e-7 spacings
    (H3_SEQ.masses, (1, 3, 4, 2)),
], ids=["light_mass", "H3"])
def test_quadrature_above_the_study_order_moves_no_level(masses, ordering):
    # every study assembles at _QUADRATURE_FACTOR n_max; 5 n_max moves none of its levels
    sec = flatten_sector(MassSequence(masses), ordering)
    n_max = 30
    low, high = (
        solve_spectrum(*assemble(sec, BasisTruncation(n_max), factor * n_max), 60)[0].levels
        for factor in (sine_basis._QUADRATURE_FACTOR, 5)
    )
    spacing = 4.0 * math.pi / sec.geometry.area
    assert np.abs(high - low).max() < 1e-5 * spacing


def test_convergence_study_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        convergence_study(octant_sector(), (), k=4)


def test_one_entry_study_has_an_empty_window():
    study = convergence_study(octant_sector(), (8,), k=4, tol_spacings=1e3)
    assert study.converged_count == 0
    assert len(study.values) == 4 and len(study.window) == 0


def test_convergence_study_octant_ground_level():
    # 1e-2 in E on the octant, whose mean spacing 4 pi/area is 8
    study = convergence_study(octant_sector(), (10, 15, 20), k=5, tol_spacings=1.25e-3)
    # ground level drift shrinks with refinement and is already below 1e-3
    assert study.deltas[1][0] < study.deltas[0][0]
    assert study.deltas[1][0] < 2e-3
    assert study.converged_count >= 1


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-2])
def test_convergence_study_rejects_tolerance_not_positive_finite(tolerance):
    # deltas > nan is always False: every level would count as converged
    with pytest.raises(ValueError, match="tol_spacings must be positive and finite"):
        convergence_study(octant_sector(), (8, 10), 6, tol_spacings=tolerance)


@pytest.mark.parametrize("k", [0, -1])
def test_convergence_study_rejects_k_below_one_before_assembly(k, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("assembled before checking k")

    monkeypatch.setattr(billiard, "assemble", unreachable)
    with pytest.raises(ValueError, match="k must be at least 1"):
        solve_sector(octant_sector(), 90, k)


def test_convergence_count_is_prefix():
    sec = flatten_sector(H3_SEQ, (2, 1, 3, 4))
    spacing = 4.0 * math.pi / sec.geometry.area
    # 0.5 in E
    study = convergence_study(sec, (20, 26), k=60, tol_spacings=0.5 / spacing)
    d = study.last_deltas
    cc = study.converged_count
    tolerance = study.tol_spacings * spacing
    assert tolerance == pytest.approx(0.5, rel=1e-14)
    assert np.all(d[:cc] <= tolerance)
    if cc < len(d):
        assert d[cc] > tolerance


def test_window_is_the_prefix_within_tol_spacings_mean_spacings():
    sec = flatten_sector(H3_SEQ, (1, 3, 4, 2))
    spacing = 4.0 * math.pi / sec.geometry.area
    for t in (1e-3, 1e-2, 0.05, 0.5):
        study = convergence_study(sec, (12, 14), k=40, tol_spacings=t)
        drift = study.last_deltas
        above = np.flatnonzero(drift > t * spacing)
        count = above[0] if above.size else len(drift)
        assert study.converged_count == count
        assert np.array_equal(study.window, study.values[:count])
        assert study.tol_spacings == t


def test_solve_spectrum_rejects_indefinite_overlap():
    a = np.eye(3)
    b = np.diag([1.0, -1.0, 1.0])
    from kaleidobilliards.errors import EigensolverError

    with pytest.raises(EigensolverError):
        solve_spectrum(a, b, 3)


def test_solve_spectrum_k_above_basis_returns_all_levels():
    sec = octant_sector()
    a, b = assemble(sec, BasisTruncation(6), quadrature_order=18)
    # the reference first: solve_spectrum consumes its matrices
    full = scipy.linalg.eigh(a, b, eigvals_only=True)
    vals = solve_spectrum(a, b, 100)[0].levels
    assert len(vals) == len(full) == 15
    np.testing.assert_allclose(vals, full, rtol=1e-10)


@pytest.mark.parametrize(
    "name,n_max,k",
    # k 5, 7 and 8 split the octant's degenerate clusters lambda 7 and 9
    [("H3", 14, 12), ("octant", 40, 5), ("octant", 40, 7), ("octant", 40, 8),
     ("octant", 60, 10)],
)
def test_solve_spectrum_levels_bound_float64_levels(name, n_max, k):
    sec = octant_sector() if name == "octant" else flatten_sector(H3_SEQ, (1, 3, 4, 2))
    a, b = assemble(sec, BasisTruncation(n_max), 3 * n_max)
    want = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[0, k - 1])
    (got,) = solve_spectrum(a, b, k)
    # 91 basis functions for 22 vectors take sygvx; the octant's 780 for up
    # to 18 vectors and 1770 for 20 take block Krylov
    assert got.path == ("dense" if name == "H3" else "krylov")
    # Ritz values of a subspace of the Galerkin space: upper bounds
    assert np.all(got.levels >= want * (1.0 - 1e-12))
    np.testing.assert_allclose(got.levels, want, rtol=1e-7, atol=0.0)


@pytest.mark.parametrize("top_first", [False, True], ids=["lower_first", "top_first"])
def test_solve_spectrum_sizes_match_leading_block_solves(top_first):
    # the blocks share the packed pencil: each later solve needs A's diagonal
    # back, and a Krylov block leaves factors in b's buffer
    cases = [
        # (sector, truncations, k, paths): every block dense, then with 20
        # vectors truncation 40 (780 functions) Krylov and 30 (435) dense
        (flatten_sector(H3_SEQ, (1, 3, 4, 2)), (14, 17, 20), 15, ["dense"] * 3),
        (octant_sector(), (30, 40), 10, ["dense", "krylov"]),
    ]
    for sec, n_maxes, k, paths in cases:
        trunc = BasisTruncation(n_maxes[-1])
        a, b = assemble(sec, trunc, 3 * trunc.n_max)
        order = slice(None, None, -1 if top_first else 1)
        sizes = [len(BasisTruncation(n_max)) for n_max in n_maxes][order]
        want = [solve_spectrum(a[:n, :n].copy(), b[:n, :n].copy(), k)[0] for n in sizes]
        got = solve_spectrum(a, b, k, sizes)
        assert [solve.path for solve in got] == [solve.path for solve in want] == paths[order]
        for got_solve, want_solve in zip(got, want, strict=True):
            np.testing.assert_allclose(got_solve.levels, want_solve.levels, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("size", [0, -1, 4, 2.0])
def test_solve_spectrum_rejects_sizes_outside_the_pencil(size):
    a, b = np.eye(3), np.eye(3)
    with pytest.raises(ValueError, match="sizes must be integers in 1\\.\\.3"):
        solve_spectrum(a, b, 1, [3, size])
    # refused before either matrix is touched
    assert np.array_equal(a, np.eye(3)) and np.array_equal(b, np.eye(3))


def test_solve_spectrum_allocates_no_pencil_copy():
    # odd N: a float32 matrix in the second half of b's buffer is not 8-byte
    # aligned, and scipy's sygvx would copy it if it were b
    a, b = assemble(octant_sector(), BasisTruncation(30), 90)
    assert len(a) % 2 == 1
    sizes = [len(BasisTruncation(26)), len(a)]
    solve_spectrum(a.copy(), b.copy(), 4, sizes)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        solve_spectrum(a, b, 12, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(a) ** 2


def test_indefinite_overlap_error_names_float32_overlap():
    with pytest.raises(EigensolverError, match="not positive-definite in float32") as info:
        solve_spectrum(np.eye(3), np.diag([1.0, -1.0, 1.0]), 2)
    assert "leading minor of order 2" in str(info.value)


def test_krylov_working_set_is_its_basis():
    # 780 functions for 15 vectors: the Krylov path, whose largest arrays
    # are its float32 basis of at most _KRYLOV_STEPS blocks and the float64
    # Rayleigh-Ritz vectors; no N x N array and no copy of the pencil
    a, b = assemble(octant_sector(), BasisTruncation(40), 120)
    n, width = len(a), 5 + pencil._OVERSAMPLE
    assert pencil._krylov_side(width, n)
    solve_spectrum(a.copy(), b.copy(), 5)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        (solve,) = solve_spectrum(a, b, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve.path == "krylov"
    basis = 4 * n * width * pencil._KRYLOV_STEPS
    assert peak < 2 * basis < 4 * n * n


def test_indefinite_overlap_on_the_krylov_side_names_float32_overlap(monkeypatch):
    # B's Cholesky factor is the Krylov path's positive-definiteness check,
    # worded as sygvx words it
    n = 700
    assert pencil._krylov_side(1 + pencil._OVERSAMPLE, n)
    b = np.ones(n)
    b[299] = -1.0
    with pytest.raises(EigensolverError, match="not positive-definite in float32") as info:
        solve_spectrum(np.eye(n), np.diag(b), 1)
    assert "leading minor of order 300" in str(info.value)
    monkeypatch.setattr(pencil, "_krylov_side", lambda width, n: False)
    with pytest.raises(EigensolverError) as dense:
        solve_spectrum(np.eye(n), np.diag(b), 1)
    assert str(dense.value) == str(info.value)


def _dense_levels(monkeypatch, a, b, k):
    with monkeypatch.context() as patch:
        patch.setattr(pencil, "_krylov_side", lambda width, n: False)
        (solve,) = solve_spectrum(a.copy(), b.copy(), k)
    assert solve.path == "dense"
    return solve.levels


def test_krylov_falls_back_to_sygvx_when_a_is_not_definite(monkeypatch):
    a, b = assemble(octant_sector(), BasisTruncation(40), 120)
    want = _dense_levels(monkeypatch, a, b, 5)
    factored = []
    real = pencil._cholesky32

    def failing_on_a(mat):
        factored.append(len(mat))
        # B is factored first, then A, which fails at its first pivot
        return real(mat) if len(factored) == 1 else 1

    monkeypatch.setattr(pencil, "_cholesky32", failing_on_a)
    (solve,) = solve_spectrum(a, b, 5)
    assert factored == [len(a), len(a)]
    assert (solve.path, solve.krylov_steps) == ("dense", 0)
    assert np.array_equal(solve.levels, want)


def test_krylov_falls_back_to_sygvx_at_the_step_cap(monkeypatch):
    a, b = assemble(octant_sector(), BasisTruncation(40), 120)
    want = _dense_levels(monkeypatch, a, b, 5)
    monkeypatch.setattr(pencil, "_KRYLOV_STEPS", 2)
    (solve,) = solve_spectrum(a, b, 5)
    assert (solve.path, solve.krylov_steps) == ("dense", 2)
    assert np.array_equal(solve.levels, want)


def test_unconverged_eigenvectors_error_names_the_cause(monkeypatch):
    def failing(*args, **kwargs):
        raise scipy.linalg.LinAlgError("3 eigenvectors failed to converge.")

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    with pytest.raises(EigensolverError, match="did not converge") as info:
        solve_spectrum(np.eye(3), np.eye(3), 2)
    assert "3 eigenvectors failed to converge" in str(info.value)
    assert "positive-definite" not in str(info.value)


@pytest.mark.parametrize("k", [0, -2])
def test_solve_spectrum_rejects_k_below_one(k):
    # vals[:k] would silently drop levels (k < 0) or return none (k = 0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        solve_spectrum(np.eye(3), np.eye(3), k)


def test_spectrum_csv_format():
    # n_max 3 has a basis of 3, so the drifts cover the first 3 of 5 levels
    text = spectrum_to_csv(convergence_study(octant_sector(), (3, 12), 5))
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "k,eigenvalue,lambda_eff,delta_last_refinement"
    assert len(lines) == 6
    assert lines[1].startswith("1,")
    assert not lines[3].endswith(",")
    assert lines[4].endswith(",") and lines[5].endswith(",")  # past the drifts
