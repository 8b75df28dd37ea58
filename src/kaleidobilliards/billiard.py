"""Dirichlet eigenproblem of the spherical Laplacian on an ordering sector.

The sector is flattened by a gnomonic projection about its vertex centroid
(great circles become straight lines) followed by an affine map onto the
right isosceles triangle with corners (-1,-1), (-1,1), (1,-1).  On that
triangle the antisymmetrized sine products h_{n,m} form a complete Dirichlet
basis, and the spherical Laplacian becomes a variable-coefficient operator
handled with a weighted symmetric Galerkin discretization:

    A_ij = int grad(h_i) . G grad(h_j) sqrt(g) ds dt,
    B_ij = int h_i h_j sqrt(g) ds dt,

with G the pushed-forward inverse metric and sqrt(g) the pulled-back sphere
measure.  Quadrature is tensor Gauss-Legendre collapsed onto the triangle at
the (-1, 1) vertex, which keeps t a function of one quadrature coordinate.
Both matrices come from four-tensors over the sine indices, which are never
stored.  By the product-to-sum identities, a product of two s-factors
(sines or their derivatives) at p and q is a sum of trig(j alpha) at
j = |p - q| and p + q, and likewise on the t side, so every term is fixed
by one (2n+1) x (2n+1) table of grid moments of trig(a alpha) trig(b theta).
The tables are summed over xi in blocks of eta columns; then each slab
T[p, :, :, :] is one sparse t-side map times the s-side rows of the
tables, and is gathered onto the basis pairs before the next is built.

The generalized eigensolver is mixed-precision: a dense float32 solve gives
the eigenvectors of the k + 10 lowest levels, and the levels are the k
lowest eigenvalues of the float64 pencil projected onto them (Rayleigh-
Ritz), so each stays a min-max upper bound on its float64 Galerkin level.
The basis pairs are ordered by m, so a lower truncation n' is the leading
block of any larger one.  A convergence study assembles once, at its top
truncation, and solves each n' on the leading block of that assembly, so
the Galerkin spaces of the study are exactly nested.  One call solves every
truncation the same way: the float64 pencil is packed into A's storage,
and each float32 pencil is copied from its leading block into B's, so no
copy of the matrices is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import roots_legendre

from .errors import (
    ChartDomainError,
    EigensolverError,
    HemisphereError,
    QuadratureError,
)
from .geometry import (
    SectorGeometry,
    coincidence_normals,
    geometry_from_inward_normals,
    sector_geometry,
)
from .masses import MassSequence

__all__ = [
    "FlattenedSector",
    "BasisTruncation",
    "ConvergenceStudy",
    "flatten_sector",
    "flatten_geometry",
    "octant_sector",
    "operator_coefficients",
    "basis_function",
    "assemble",
    "solve_spectrum",
    "solve_sector",
    "convergence_study",
    "spectrum_to_csv",
]

_CORNERS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class FlattenedSector:
    """Gnomonic chart of a spherical sector onto the reference triangle.

    A point (s, t) of the triangle is the sphere point along
    ``frame.T @ (1, u, v)`` with (u, v) = ``to_uv(s, t)``; ``geometry`` is
    the sector in the same world frame.
    """

    frame: np.ndarray  # rows: chart axis, u-axis, v-axis (orthonormal)
    affine: np.ndarray  # 2x2 matrix of the (u,v) -> (s,t) map
    offset: np.ndarray  # (s, t) offset
    geometry: SectorGeometry

    @property
    def jacobian_const(self) -> float:
        """|det d(u,v)/d(s,t)| = 1/|det affine|."""
        return 1.0 / abs(float(np.linalg.det(self.affine)))

    def to_uv(self, s, t) -> tuple:
        """Pre-image of chart points (vectorized)."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        inv = np.linalg.inv(self.affine)
        ds, dt = s - self.offset[0], t - self.offset[1]
        return inv[0, 0] * ds + inv[0, 1] * dt, inv[1, 0] * ds + inv[1, 1] * dt


@dataclass(frozen=True)
class BasisTruncation:
    n_max: int
    # (n, m), 1 <= n < m <= n_max, m-major: the pairs of a lower truncation
    # n' are the first n'(n'-1)/2
    index_pairs: tuple = field(init=False)

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        pairs = tuple((n, m) for m in range(2, self.n_max + 1) for n in range(1, m))
        object.__setattr__(self, "index_pairs", pairs)

    def __len__(self):
        return len(self.index_pairs)


@dataclass(frozen=True)
class ConvergenceStudy:
    """The record of a sector solve: levels at every truncation of a grid."""

    n_max_grid: tuple
    spectra: tuple  # ascending eigenvalues of -Laplacian per grid entry
    deltas: np.ndarray  # (len(grid)-1, k) per-level |E_k(n_{j+1}) - E_k(n_j)|
    converged_count: int
    tol_spacings: float  # the window's drift bound, in mean spacings
    quadrature_order: int  # of the one assembly at the top truncation

    @property
    def values(self) -> np.ndarray:
        """Levels at the top truncation."""
        return self.spectra[-1]

    @property
    def effective_lambda(self) -> np.ndarray:
        """lambda with value = lambda (lambda + 1), at the top truncation."""
        return 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * self.values))

    @property
    def window(self) -> np.ndarray:
        """The converged levels: the first converged_count of the top truncation."""
        return self.values[:self.converged_count]

    @property
    def last_deltas(self) -> np.ndarray | None:
        """Drifts of the last refinement; None for a one-entry grid."""
        return self.deltas[-1] if len(self.deltas) else None


# ---------------------------------------------------------------------------
# flattening


def _chart(geometry: SectorGeometry, corners) -> FlattenedSector:
    """Gnomonic projection about the vertex centroid, which congruent sectors
    share, then the affine map sending vertex k of ``geometry`` to ``corners[k]``."""
    axis = geometry.vertices.sum(axis=0)
    axis = axis / np.linalg.norm(axis)
    cos_theta = geometry.vertices @ axis
    if np.any(cos_theta <= 1e-9):
        raise HemisphereError(
            f"sector vertex at cos(theta) = {cos_theta.min():.3e} from the chart "
            "axis; the gnomonic chart does not contain this sector"
        )
    e_u = geometry.vertices[0] - (geometry.vertices[0] @ axis) * axis
    e_u /= np.linalg.norm(e_u)
    e_v = np.cross(axis, e_u)
    frame = np.array([axis, e_u, e_v])
    proj = geometry.vertices @ frame.T
    pts = proj[:, 1:] / proj[:, :1]  # (u, v) of the three vertices
    edges_p = np.array([pts[1] - pts[0], pts[2] - pts[0]]).T
    edges_c = np.array([corners[1] - corners[0], corners[2] - corners[0]]).T
    affine = edges_c @ np.linalg.inv(edges_p)
    offset = corners[0] - affine @ pts[0]
    return FlattenedSector(frame=frame, affine=affine, offset=offset, geometry=geometry)


def flatten_sector(masses: MassSequence, ordering) -> FlattenedSector:
    """Chart of the ordering sector x_{p1} <= x_{p2} <= x_{p3} <= x_{p4}.

    Vertex 1 joins the (p1,p2) and (p3,p4) planes, which are orthogonal in
    mass-weighted coordinates; that right angle goes to (-1,-1).
    """
    geometry = sector_geometry(coincidence_normals(masses), ordering)
    return _chart(geometry, _CORNERS[[2, 0, 1]])


def flatten_geometry(geometry: SectorGeometry) -> FlattenedSector:
    """Chart of a sector geometry, its vertices sent to the corners in order."""
    return _chart(geometry, _CORNERS)


def octant_sector() -> FlattenedSector:
    """Manual sector bounded by three mutually orthogonal planes."""
    return flatten_geometry(geometry_from_inward_normals(np.eye(3), label=("octant",)))


# ---------------------------------------------------------------------------
# operator and basis


def _inside_triangle(s, t):
    return (s > -1.0 + 1e-12) & (t > -1.0 + 1e-12) & (s + t < -1e-12)


def operator_coefficients(sector: FlattenedSector, s, t) -> dict:
    """Coefficients {g_ss, g_st, g_tt, b_s, b_t} of the operator (vectorized).

    The convention matches the chart form: Laplacian = g_ss d_ss + g_st d_st
    + g_tt d_tt + b_s d_s + b_t d_t (the cross coefficient multiplies the
    mixed derivative once).  The second-order terms are the metric that
    ``assemble`` integrates; scalar points give floats.
    """
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    scalar = s.ndim == 0
    # a 0-d point would drop to numpy scalars, whose power can differ from the
    # array loop in the last bit; one-element arrays take the grid's path
    s, t = np.atleast_1d(s, t)
    outside = np.flatnonzero(~_inside_triangle(s, t))
    if outside.size:
        i = outside[0]
        raise ChartDomainError(
            f"point ({s.flat[i]}, {t.flat[i]}) lies outside the open triangle"
        )
    sqrt_g, g_ss, g_st, g_tt = _grid_weights(sector, s, t, 1.0)
    u, v = sector.to_uv(s, t)
    w2 = 1.0 + u * u + v * v
    b_u, b_v = 2.0 * w2 * u, 2.0 * w2 * v  # first-order terms in (u, v)
    a = sector.affine
    out = {
        "g_ss": g_ss / sqrt_g,
        "g_st": 2.0 * g_st / sqrt_g,
        "g_tt": g_tt / sqrt_g,
        "b_s": a[0, 0] * b_u + a[0, 1] * b_v,
        "b_t": a[1, 0] * b_u + a[1, 1] * b_v,
    }
    return {k: float(c[0]) for k, c in out.items()} if scalar else out


def basis_function(n: int, m: int, s, t):
    """Antisymmetrized right-triangle Dirichlet mode h_{n,m}.

    Equals sin(n pi (s+1)/2) sin(m pi (t-1)/2) - (n <-> m), the products
    whose grid moments ``assemble`` takes; the eight-term exponential
    combination collapses to this two-product difference.
    """
    if not 1 <= n < m:
        raise ValueError("basis needs 1 <= n < m")
    phi, _ = _sine_factors(m, np.asarray(s, dtype=float), +1.0)
    psi, _ = _sine_factors(m, np.asarray(t, dtype=float), -1.0)
    return phi[n - 1] * psi[m - 1] - phi[m - 1] * psi[n - 1]


# ---------------------------------------------------------------------------
# assembly

# rows of the pair matrix symmetrized per block: bounds the symmetrization
# temporaries at a few MB whatever the basis size
_ROW_BLOCK = 16
# eta columns of the quadrature grid per block of alpha moments: bounds the
# trig temporaries at a few MB at n_max 90
_ETA_BLOCK = 8
# eigenvectors computed beyond the k levels returned: the Rayleigh-Ritz step
# then resolves a degenerate cluster that the k-th level splits
_OVERSAMPLE = 10
_TOL_SPACINGS = 0.05  # default drift bound of a window, in mean spacings 4 pi/area


def _quadrature_grid(order: int):
    """Tensor Gauss-Legendre grid collapsed at the (-1, 1) vertex.

    Returns s (Q,Q), t (Q,), and the full quadrature weight including the
    triangle collapse Jacobian 4 (1 - eta), laid out as [xi, eta].
    """
    x, w = roots_legendre(order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    eta = x01
    xi = x01
    t = -1.0 + 2.0 * eta
    s = -1.0 + 2.0 * xi[:, None] * (1.0 - eta)[None, :]
    weight = (w01[:, None] * w01[None, :]) * (4.0 * (1.0 - eta))[None, :]
    return s, t, weight


def _grid_weights(sector: FlattenedSector, s, t, quad_w) -> tuple:
    """Quadrature weights times sqrt(g) and the entries of G sqrt(g).

    Returns (sqrt_g, g_ss, g_st, g_tt), each multiplied by ``quad_w``.
    """
    u, v = sector.to_uv(s, np.broadcast_to(t, s.shape))
    w2 = 1.0 + u * u + v * v
    sqrt_g = w2**-1.5 * sector.jacobian_const
    winv = w2**-0.5 * sector.jacobian_const
    a = sector.affine
    # G sqrt(g) = A M A^T w^{-1} / |det A| with M = [[1+u^2, uv], [uv, 1+v^2]]
    m_uu, m_uv, m_vv = 1.0 + u * u, u * v, 1.0 + v * v
    g_ss = (a[0, 0] * (a[0, 0] * m_uu + a[0, 1] * m_uv)
            + a[0, 1] * (a[0, 0] * m_uv + a[0, 1] * m_vv)) * winv
    g_st = (a[1, 0] * (a[0, 0] * m_uu + a[0, 1] * m_uv)
            + a[1, 1] * (a[0, 0] * m_uv + a[0, 1] * m_vv)) * winv
    g_tt = (a[1, 0] * (a[1, 0] * m_uu + a[1, 1] * m_uv)
            + a[1, 1] * (a[1, 0] * m_uv + a[1, 1] * m_vv)) * winv
    return sqrt_g * quad_w, g_ss * quad_w, g_st * quad_w, g_tt * quad_w


def _sine_factors(n_max: int, coord: np.ndarray, shift: float):
    """phi_n(x) = sin(n pi (x + shift)/2) and derivative, for n = 1..n_max."""
    arg = 0.5 * math.pi * (coord + shift)
    n = np.arange(1, n_max + 1)
    phase = n.reshape((n_max,) + (1,) * coord.ndim) * arg[None, ...]
    vals = np.sin(phase)
    ders = (0.5 * math.pi) * n.reshape((n_max,) + (1,) * coord.ndim) * np.cos(phase)
    return vals, ders


def _moment_tables(sector: FlattenedSector, n_max: int, order: int) -> dict:
    """W[a, b] = sum over the grid of w trig(a alpha) trig(b theta), a, b = 0..2 n_max.

    alpha = pi (s+1)/2 and theta = pi (t-1)/2 are the arguments of the s-
    and t-direction sine factors.  The sqrt(g), g_ss and g_tt weights give
    cos-cos tables, the g_st weight a sin-sin table.  The alpha moments are
    summed over xi in blocks of eta columns, so no (2 n_max + 1, Q, Q) table
    of trig values is ever alive.
    """
    s, t, quad_w = _quadrature_grid(order)
    w_b, w_ss, w_st, w_tt = _grid_weights(sector, s, t, quad_w)
    freq = np.arange(2 * n_max + 1, dtype=float)
    alpha = (0.5 * math.pi * (s + 1.0)).T  # [eta, xi]
    theta = 0.5 * math.pi * (t - 1.0)
    # [eta, xi, weight]: the three cos weights, then the sin weight
    weights = np.stack([w_b, w_ss, w_tt, w_st], axis=-1).transpose(1, 0, 2)
    moments = np.empty((order, len(freq), 4))  # [eta, a, weight]
    for start in range(0, order, _ETA_BLOCK):
        cols = slice(start, start + _ETA_BLOCK)
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


def _product_to_sum(d1: int, d2: int, p, q) -> tuple:
    """Coefficients (u, v) of f1_p f2_q = u trig(|p-q| x) + v trig((p+q) x).

    f_p(x) is sin(p x), or for d = 1 its chart derivative (pi/2) p cos(p x);
    trig is cos when d1 = d2 and sin otherwise.
    """
    scale = 0.5 * (0.5 * math.pi * p) ** d1 * (0.5 * math.pi * q) ** d2
    u = scale if d1 == d2 else (d2 - d1) * np.sign(p - q) * scale
    v = -scale if d1 == d2 == 0 else scale
    return u, v


def _pair_matrix(terms, trunc: BasisTruncation) -> np.ndarray:
    """Matrix of the antisymmetrized basis h_(n,m) from moment tables.

    Each term is (d1, d2, d3, d4, W): the four-tensor
    T[p,q,r,s] = sum W-weighted f1_p f2_q g1_r g2_s, whose s-factors f and
    t-factors g are sines (d = 0) or their derivatives (d = 1).  By product
    to sum, T[p,q,r,s] = sum_b G[(p,q), b] C[(r,s), b]: G reads the rows
    |p-q| and p+q of W, and C is sparse with two entries per term and row.
    T is built one slab T[p,:,:,:] at a time, laid out [r, s, q].  Entry
    (i, j) is D_i[n_j,m_j] - D_i[m_j,n_j] with
    D_i = T[n_i,:,m_i,:] - T[m_i,:,n_i,:], so slab p adds to the rows with
    n_i = p and subtracts from those with m_i = p.
    """
    # imported here, so that the commands that never assemble do not load it
    from scipy.sparse import csr_array

    n = trunc.n_max
    width = 2 * n + 1
    idx = np.arange(1, n + 1)
    p_grid, q_grid = np.meshgrid(idx, idx, indexing="ij")
    dist, total = np.abs(p_grid - q_grid), p_grid + q_grid
    g_side, c_cols, c_vals = [], [], []
    for i, (d1, d2, d3, d4, table) in enumerate(terms):
        g_side.append((table.T, *_product_to_sum(d1, d2, p_grid, q_grid)))
        u, v = _product_to_sum(d3, d4, p_grid, q_grid)
        c_cols += [i * width + dist.ravel(), i * width + total.ravel()]
        c_vals += [u.ravel(), v.ravel()]
    c_rows = np.tile(np.arange(n * n), len(c_cols))
    c_map = csr_array(
        (np.concatenate(c_vals), (c_rows, np.concatenate(c_cols))),
        shape=(n * n, len(terms) * width),
    )
    n_i, m_i = np.array(trunc.index_pairs).T - 1
    lower, upper = m_i * n + n_i, n_i * n + m_i
    # the pairs are m-major: 0-based (n, m) is row first[m] + n
    first = np.arange(n) * np.arange(-1, n - 1) // 2
    out = np.empty((len(n_i), len(n_i)))
    for p in range(n):
        g = np.concatenate([
            table_t[:, dist[p]] * u[p] + table_t[:, total[p]] * v[p]
            for table_t, u, v in g_side
        ])  # [(term, b), q]
        slab = (c_map @ g).reshape(n, n * n)  # T[p, q, r, s] at [r, (s, q)]
        z = np.take(slab, lower, axis=1)
        z -= np.take(slab, upper, axis=1)
        # slab p is the first to reach the rows with n_i = p
        out[first[p + 1:] + p] = z[p + 1:]
        out[first[p]:first[p] + p] -= z[:p]
    return out


def _symmetrize(mat: np.ndarray, name: str) -> None:
    """Replace mat by (mat + mat.T) / 2 in place, block by block of rows.

    Raises QuadratureError if mat and mat.T differ by more than 1e-10 of
    the largest entry.
    """
    asym = scale = 0.0
    for start in range(0, len(mat), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        # rows start:stop left of the diagonal block's end, and their mirror;
        # no earlier block wrote into either
        lower, upper = mat[start:stop, :stop], mat[:stop, start:stop].T
        asym = max(asym, float(np.abs(lower - upper).max()))
        scale = max(scale, float(np.abs(lower).max()), float(np.abs(upper).max()))
        lower[...] = upper[...] = 0.5 * (lower + upper)
    asym /= max(scale, 1e-300)
    if asym > 1e-10:
        raise QuadratureError(f"{name} asymmetry {asym:.2e} exceeds 1e-10")


def assemble(sector: FlattenedSector, trunc: BasisTruncation, quadrature_order: int):
    """Stiffness and overlap matrices of the weighted Galerkin problem.

    B is one term, (sin, sin | sin, sin) under sqrt(g).  A sums the g_ss
    term, the g_st cross term, that term's (1,0,3,2) transpose (what
    cross + cross.T is after the gather) and the g_tt term.
    """
    if quadrature_order < 3 * trunc.n_max:
        raise QuadratureError(
            f"quadrature_order {quadrature_order} < 3 n_max = {3 * trunc.n_max}"
        )
    w = _moment_tables(sector, trunc.n_max, quadrature_order)
    a_mat = _pair_matrix([
        (1, 1, 0, 0, w["ss"]),
        (1, 0, 0, 1, w["st"]),
        (0, 1, 1, 0, w["st"]),
        (0, 0, 1, 1, w["tt"]),
    ], trunc)
    b_mat = _pair_matrix([(0, 0, 0, 0, w["b"])], trunc)
    _symmetrize(a_mat, "A")
    _symmetrize(b_mat, "B")
    return a_mat, b_mat


# ---------------------------------------------------------------------------
# spectrum


def _float32_pencil(packed: np.ndarray, b_diag: np.ndarray, buffer: np.ndarray,
                    n: int) -> tuple:
    """The float32 pencil (A32, B32) of the leading n x n block.

    ``packed`` holds A in its lower triangle and B's strict upper triangle
    above it.  Both are copied into ``buffer``: B32 first, because that
    start is 8-byte aligned and scipy's sygvx copies a misaligned b, then
    A32.  Only their lower triangles are read.
    """
    halves = buffer.reshape(-1).view(np.float32)
    b32, a32 = halves[:n * n].reshape(n, n), halves[n * n:2 * n * n].reshape(n, n)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        # rows start:stop left of the block's end; right of the diagonal they
        # hold the other matrix, which LAPACK does not read
        a32[start:stop, :stop] = packed[start:stop, :stop]
        b32[start:stop, :stop] = packed[:stop, start:stop].T
    b32.flat[::n + 1] = b_diag[:n]
    return a32, b32


def _eigensolver_error(exc: Exception) -> EigensolverError:
    """The EigensolverError of a LAPACK failure, worded by its cause."""
    if "leading minor" in str(exc):
        # LAPACK names the order of the leading minor of B that is not
        # positive-definite
        return EigensolverError(
            f"generalized eigensolver failed ({exc}); an overlap matrix that is "
            "not positive-definite needs a higher quadrature_order"
        )
    return EigensolverError(
        f"generalized eigensolver did not converge ({exc}); the pencil is "
        "too ill-conditioned for its float32 eigenvectors"
    )


def solve_spectrum(a_mat: np.ndarray, b_mat: np.ndarray, k: int, sizes=None) -> list:
    """Lowest k eigenvalues of A x = E B x on leading blocks (symmetric-definite, dense).

    Returns one ascending array per entry n of ``sizes``: the min(k, n)
    lowest values of the subpencil on the leading n x n blocks; ``sizes``
    None is the one size N of the whole pencil.  Every block is solved the
    same way: its pencil is solved in float32 for the eigenvectors X of the
    k + ``_OVERSAMPLE`` lowest levels, and the levels are the k lowest
    eigenvalues of the float64 projected pencil (X^T A X, X^T B X).  They
    are Ritz values of a subspace of the Galerkin space, so each is at or
    above the float64 Galerkin level, and the oversampling keeps a
    degenerate cluster split at k accurate.  The solver factors B itself,
    so a B that is not positive-definite fails here.

    Both matrices are consumed: B's strict upper triangle moves into A's
    once, and b_mat's buffer holds each float32 pencil in turn, so their
    contents are undefined afterwards and no N x N array is allocated.  The
    matrices must be symmetric float64; a C-ordered matrix is passed to
    LAPACK and BLAS as its transpose, the same matrix in Fortran order.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    size = len(a_mat)
    sizes = [size] if sizes is None else list(sizes)
    for n in sizes:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= size):
            raise ValueError(f"sizes must be integers in 1..{size}, got {n!r}")
    a_diag, b_diag = a_mat.diagonal().copy(), b_mat.diagonal().copy()
    for i in range(size - 1):
        a_mat[i, i + 1:] = b_mat[i, i + 1:]
    spectra = []
    for n in sizes:
        count = min(k, n)
        a32, b32 = _float32_pencil(a_mat, b_diag, b_mat, n)
        try:
            # LAPACK reads the Fortran upper triangle of the transposes: the
            # C-order lower triangles of A32 and B32
            _, vecs = scipy.linalg.eigh(
                a32.T, b32.T, lower=False, check_finite=False, driver="gvx",
                subset_by_index=[0, min(count + _OVERSAMPLE, n) - 1],
                overwrite_a=True, overwrite_b=True,
            )
            x = np.zeros((size, vecs.shape[1]), order="F")
            x[:n] = vecs
            # A in the C-order lower triangle of a_mat (Fortran upper of
            # a_mat.T), B in the upper one while B's diagonal is in place
            a_x = scipy.linalg.blas.dsymm(1.0, a_mat.T, x, lower=0)
            np.fill_diagonal(a_mat, b_diag)
            b_x = scipy.linalg.blas.dsymm(1.0, a_mat.T, x, lower=1)
            np.fill_diagonal(a_mat, a_diag)
            a_proj, b_proj = x.T @ a_x, x.T @ b_x
            # twice the symmetric parts: the same eigenvalues
            vals = scipy.linalg.eigh(
                a_proj + a_proj.T, b_proj + b_proj.T, eigvals_only=True,
                check_finite=False, subset_by_index=[0, count - 1],
            )
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise _eigensolver_error(exc) from exc
        if vals[0] <= 0.0:
            raise EigensolverError(
                f"non-positive leading eigenvalue {vals[0]:.3e}; basis too coarse "
                "or overlap ill-conditioned"
            )
        spectra.append(vals)
    return spectra


def solve_sector(sector: FlattenedSector, n_max: int, k: int,
                 quadrature_order: int | None = None) -> ConvergenceStudy:
    """Lowest k levels at one truncation: a one-entry study, whose window is empty."""
    return convergence_study(sector, (n_max,), k, quadrature_order=quadrature_order)


def convergence_study(sector: FlattenedSector, n_max_grid, k: int,
                      tol_spacings: float = _TOL_SPACINGS,
                      quadrature_order: int | None = None) -> ConvergenceStudy:
    """Per-level eigenvalue drifts across an ascending n_max grid.

    One assembly at the top truncation, with quadrature_order (default
    3 n_max of the top), serves the whole grid: the pairs of a lower
    truncation n' lead the top one's, so its matrices are the leading
    blocks of the top ones.  The Galerkin spaces are nested under the same
    discrete forms, so the Galerkin levels cannot rise with n_max; the
    reported Ritz levels can, by no more than their Ritz error.  The window
    is the lowest levels whose last drift is at most tol_spacings mean
    spacings 4 pi/area; a one-entry grid has no drift and no window.
    """
    grid = tuple(int(n) for n in n_max_grid)
    if not grid:
        raise ValueError("n_max grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_max grid must be strictly ascending")
    if not 0.0 < tol_spacings < math.inf:
        raise ValueError(f"tol_spacings must be positive and finite, got {tol_spacings}")
    top = BasisTruncation(grid[-1])
    order = quadrature_order if quadrature_order is not None else 3 * top.n_max
    a_top, b_top = assemble(sector, top, order)
    spectra = solve_spectrum(a_top, b_top, k, [len(BasisTruncation(n)) for n in grid])
    n_common = min(len(vals) for vals in spectra)
    deltas = np.abs(np.diff([vals[:n_common] for vals in spectra], axis=0))
    tolerance = tol_spacings * (4.0 * math.pi / sector.geometry.area)
    # the first level past the window: a one-entry grid has no last row
    converged = int(np.flatnonzero(np.append(deltas[-1:] > tolerance, True))[0])
    return ConvergenceStudy(
        n_max_grid=grid,
        spectra=tuple(spectra),
        deltas=deltas,
        converged_count=converged,
        tol_spacings=tol_spacings,
        quadrature_order=order,
    )


def spectrum_to_csv(study: ConvergenceStudy) -> str:
    """Top-truncation levels with the drift of the last refinement, where there is one."""
    deltas = study.last_deltas
    lines = ["k,eigenvalue,lambda_eff,delta_last_refinement"]
    for i, (val, lam) in enumerate(zip(study.values, study.effective_lambda)):
        delta = "" if deltas is None or i >= len(deltas) else f"{deltas[i]:.12g}"
        lines.append(f"{i + 1},{val:.12g},{lam:.12g},{delta}")
    return "\n".join(lines) + "\n"
