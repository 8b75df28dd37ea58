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

The generalized eigensolver is mixed-precision: a float32 solve gives the
eigenvectors of the k + 10 lowest levels, and the levels are the k lowest
eigenvalues of the float64 pencil projected onto them (Rayleigh-Ritz), so
each stays a min-max upper bound on its float64 Galerkin level.  The
float32 solve is sygvx on the whole pencil, or, when the block holds many
more basis functions than the vectors it needs, block Krylov on the
Cholesky factors, whose cost follows k instead of the whole pencil's.
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
from typing import NamedTuple

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
    "BlockSolve",
    "ConvergenceStudy",
    "flatten_sector",
    "flatten_geometry",
    "octant_sector",
    "operator_coefficients",
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
    solves: tuple  # one BlockSolve per grid entry
    deltas: np.ndarray  # (len(grid)-1, k) per-level |E_k(n_{j+1}) - E_k(n_j)|
    converged_count: int
    tol_spacings: float  # the window's drift bound, in mean spacings
    quadrature_order: int  # of the one assembly at the top truncation

    @property
    def spectra(self) -> tuple:
        """Ascending eigenvalues of -Laplacian per grid entry."""
        return tuple(solve.levels for solve in self.solves)

    @property
    def values(self) -> np.ndarray:
        """Levels at the top truncation."""
        return self.solves[-1].levels

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
# basis functions per computed eigenvector from which a block takes block
# Krylov instead of sygvx: Krylov costs about (vectors) N^2 and sygvx N^3,
# and on two cores they cost the same at 31 to 34 functions per vector for
# N 780, 1770 and 4005.  It exceeds _KRYLOV_STEPS, so a Krylov basis fits.
_KRYLOV_RATIO = 32
# Krylov blocks built before a block goes to sygvx; 6 to 9 converge
_KRYLOV_STEPS = 16
# relative residual |C u - theta u| / theta below which a wanted Krylov Ritz
# pair is converged: 1e-5 keeps every level within 7.8e-10 relative of its
# float64 Galerkin level, 1e-4 within 8.9e-9 and 1e-3 within 3e-7
_KRYLOV_TOL = 1e-5
_TOL_SPACINGS = 0.05  # default drift bound of a window, in mean spacings 4 pi/area
# Gauss-Legendre order per truncation index: the floor of ``assemble`` and the
# order of every study.  Higher orders move no level by more than about 2e-7
# mean spacings, over mass ratios from 1e-6 to 1e3.
_QUADRATURE_FACTOR = 3


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


def _trig_multiples(angle: np.ndarray, count: int) -> tuple:
    """cos(a x) and sin(a x) for a = 0..count-1 (count >= 2), on a new leading axis.

    One cos and one sin per point; the higher multiples follow from the
    Chebyshev recurrence f_{a+1} = 2 cos(x) f_a - f_{a-1}, which both
    satisfy.
    """
    cos_a, sin_a = np.empty((2, count) + angle.shape)
    cos_a[0], sin_a[0] = 1.0, 0.0
    cos_a[1], sin_a[1] = np.cos(angle), np.sin(angle)
    twice_cos = 2.0 * cos_a[1]
    for a in range(1, count - 1):
        for table in (cos_a, sin_a):
            np.multiply(twice_cos, table[a], out=table[a + 1])
            table[a + 1] -= table[a - 1]
    return cos_a, sin_a


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
    width = 2 * n_max + 1
    alpha = (0.5 * math.pi * (s + 1.0)).T  # [eta, xi]
    theta = 0.5 * math.pi * (t - 1.0)
    # [eta, xi, weight]: the three cos weights, then the sin weight
    weights = np.stack([w_b, w_ss, w_tt, w_st], axis=-1).transpose(1, 0, 2)
    moments = np.empty((order, width, 4))  # [eta, a, weight]
    for start in range(0, order, _ETA_BLOCK):
        cols = slice(start, start + _ETA_BLOCK)
        cos_a, sin_a = _trig_multiples(alpha[cols], width)  # [a, eta, xi]
        moments[cols, :, :3] = cos_a.transpose(1, 0, 2) @ weights[cols, :, :3]
        moments[cols, :, 3:] = sin_a.transpose(1, 0, 2) @ weights[cols, :, 3:]
    # Q (2 n_max + 1) direct calls: cheap, and closer to exact than the recurrence
    phase = theta[:, None] * np.arange(width)[None, :]  # [eta, b]
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
    floor = _QUADRATURE_FACTOR * trunc.n_max
    if quadrature_order < floor:
        raise QuadratureError(
            f"quadrature_order {quadrature_order} < {_QUADRATURE_FACTOR} n_max = {floor}"
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
            f"generalized eigensolver failed ({exc}); the overlap matrix is not "
            "positive-definite in float32"
        )
    return EigensolverError(
        f"generalized eigensolver did not converge ({exc}); the pencil is "
        "too ill-conditioned for its float32 eigenvectors"
    )


def _dense_vectors(a32: np.ndarray, b32: np.ndarray, width: int) -> np.ndarray:
    """Float32 eigenvectors of the ``width`` lowest levels, by sygvx on the whole pencil."""
    # LAPACK reads the Fortran upper triangle of the transposes: the C-order
    # lower triangles of A32 and B32
    return scipy.linalg.eigh(
        a32.T, b32.T, lower=False, check_finite=False, driver="gvx",
        subset_by_index=[0, width - 1], overwrite_a=True, overwrite_b=True,
    )[1]


def _cholesky32(mat: np.ndarray) -> int:
    """Factor the C-order lower triangle of float32 ``mat`` in place, as the
    Fortran upper factor U of ``mat.T`` (mat = U^T U); LAPACK's info."""
    return scipy.linalg.lapack.spotrf(mat.T, lower=0, clean=0, overwrite_a=1)[1]


def _krylov_vectors(a32: np.ndarray, b32: np.ndarray, count: int, width: int) -> tuple:
    """Float32 vectors of the ``width`` lowest levels by block Krylov, and its steps.

    Both matrices are factored in place, B = U_B^T U_B first: a B that is
    not positive-definite raises LinAlgError, worded as sygvx words it.
    With A = U_A^T U_A, the levels E are 1/theta for the eigenvalues theta
    of C = U_A^-T B U_A^-1, so the lowest levels are the largest theta,
    which block Krylov reaches from one seeded block of ``width`` columns
    (a fixed seed, so a block's levels repeat from run to run).  Every
    product is a triangular solve or multiply on scipy's BLAS, and each
    new block is orthogonalized twice against all before it.  The Krylov
    basis stops growing when the ``count`` largest Ritz pairs of C have
    relative residuals below ``_KRYLOV_TOL``; the Ritz vectors of the
    ``width`` largest are returned as X = U_A^-1 Y.  Returns (None, steps)
    when A is not positive-definite in float32 or ``_KRYLOV_STEPS``
    blocks do not converge.
    """
    n = len(a32)
    info = _cholesky32(b32)
    if info > 0:
        raise scipy.linalg.LinAlgError(
            f"The leading minor of order {info} of B is not positive definite. "
            "The factorization of B could not be completed and no eigenvalues "
            "or eigenvectors were computed."
        )
    if _cholesky32(a32) > 0:
        return None, 0
    u_a, u_b = a32.T, b32.T  # Fortran upper factors
    blas = scipy.linalg.blas
    basis = np.empty((n, _KRYLOV_STEPS * width), dtype=np.float32, order="F")
    # C's Rayleigh quotient on the basis, filled by block columns: its upper
    # triangle holds every coefficient of the orthogonalization
    proj = np.zeros((_KRYLOV_STEPS * width,) * 2, dtype=np.float32, order="F")
    start = np.random.default_rng(0).standard_normal((n, width), dtype=np.float32)
    basis[:, :width] = scipy.linalg.qr(start, mode="economic", check_finite=False)[0]
    for step in range(_KRYLOV_STEPS):
        cols = (step + 1) * width
        block = basis[:, cols - width:cols]
        w = blas.strsm(1.0, u_a, block, lower=0)  # U_A^-1 Q_j, a new array
        w = blas.strmm(1.0, u_b, w, lower=0, overwrite_b=1)
        w = blas.strmm(1.0, u_b, w, lower=0, trans_a=1, overwrite_b=1)
        w = blas.strsm(1.0, u_a, w, lower=0, trans_a=1, overwrite_b=1)
        for _ in range(2):
            h = blas.sgemm(1.0, basis[:, :cols], w, trans_a=1)
            w = blas.sgemm(-1.0, basis[:, :cols], h, beta=1.0, c=w, overwrite_c=1)
            proj[:cols, cols - width:cols] += h
        q_next, r_next = scipy.linalg.qr(w, mode="economic", overwrite_a=True,
                                         check_finite=False)
        # the whole small problem: the Ritz vectors of a syevr subset lose
        # orthogonality inside the octant's degenerate clusters
        theta, ritz = scipy.linalg.eigh(proj[:cols, :cols], lower=False, check_finite=False)
        # C (Q s) - theta (Q s) = Q_{j+1} R_{j+1} s_j, s_j the last block of s
        residual = np.linalg.norm(blas.sgemm(1.0, r_next, ritz[-width:, -count:]), axis=0)
        if np.all(residual <= _KRYLOV_TOL * theta[-count:]):
            y = blas.sgemm(1.0, basis[:, :cols], ritz[:, -width:])
            return blas.strsm(1.0, u_a, y, lower=0, overwrite_b=1), step + 1
        if step + 1 < _KRYLOV_STEPS:
            basis[:, cols:cols + width] = q_next
    return None, _KRYLOV_STEPS


def _rayleigh_ritz(packed: np.ndarray, a_diag: np.ndarray, b_diag: np.ndarray,
                   vecs: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the float64 pencil projected on ``vecs``.

    ``packed`` holds A in its C-order lower triangle (the Fortran upper of
    packed.T) and B's strict upper triangle above it; ``vecs`` spans the
    leading rows.
    """
    x = np.zeros((len(packed), vecs.shape[1]), order="F")
    x[:len(vecs)] = vecs
    blas = scipy.linalg.blas
    a_x = blas.dsymm(1.0, packed.T, x, lower=0)
    # B in the upper triangle while B's diagonal is in place
    np.fill_diagonal(packed, b_diag)
    b_x = blas.dsymm(1.0, packed.T, x, lower=1)
    np.fill_diagonal(packed, a_diag)
    # on scipy's BLAS, like dsymm: numpy may bundle its own OpenBLAS, whose
    # thread pool stalls against scipy's
    a_proj = blas.dgemm(1.0, x, a_x, trans_a=1)
    b_proj = blas.dgemm(1.0, x, b_x, trans_a=1)
    # twice the symmetric parts: the same eigenvalues; the whole small
    # pencil, as sygv solves it faster than sygvx bisects a subset
    return scipy.linalg.eigh(
        a_proj + a_proj.T, b_proj + b_proj.T, eigvals_only=True,
        check_finite=False, driver="gv",
    )[:count]


def _krylov_side(width: int, n: int) -> bool:
    """Whether a leading block of n basis functions, solved for ``width``
    eigenvectors, takes the block Krylov path."""
    return n >= _KRYLOV_RATIO * width


class BlockSolve(NamedTuple):
    """The levels of one leading block, with how its eigenvectors were found."""

    levels: np.ndarray  # ascending
    path: str  # "krylov" or "dense"
    krylov_steps: int  # Krylov blocks built; 0 when none was


def solve_spectrum(a_mat: np.ndarray, b_mat: np.ndarray, k: int, sizes=None) -> list:
    """Lowest k eigenvalues of A x = E B x on leading blocks (symmetric-definite, dense).

    Returns one ``BlockSolve`` per entry n of ``sizes``: the min(k, n)
    lowest values of the subpencil on the leading n x n blocks; ``sizes``
    None is the one size N of the whole pencil.  Every block's pencil is
    solved in float32 for the eigenvectors X of its k + ``_OVERSAMPLE``
    lowest levels, and the levels are the k lowest eigenvalues of the
    float64 projected pencil (X^T A X, X^T B X).  They are Ritz values of
    a subspace of the Galerkin space, so each is at or above the float64
    Galerkin level, and the oversampling keeps a degenerate cluster split
    at k accurate.

    X comes from one of two float32 solvers, chosen from n and the
    vector count alone (``_krylov_side``): a block of at least
    ``_KRYLOV_RATIO`` basis functions per vector runs block Krylov on the
    Cholesky factors (``_krylov_vectors``), any other sygvx on the whole
    pencil.  A Krylov block whose A is not positive-definite in float32,
    or which does not converge in ``_KRYLOV_STEPS`` blocks, goes to
    sygvx.  Both factor B, so a B that is not positive-definite fails
    with the same error on either.

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
    solves = []
    for n in sizes:
        count = min(k, n)
        width = min(count + _OVERSAMPLE, n)
        try:
            vecs, steps = None, 0
            if _krylov_side(width, n):
                vecs, steps = _krylov_vectors(*_float32_pencil(a_mat, b_diag, b_mat, n),
                                              count, width)
            path = "dense" if vecs is None else "krylov"
            if vecs is None:
                vecs = _dense_vectors(*_float32_pencil(a_mat, b_diag, b_mat, n), width)
            vals = _rayleigh_ritz(a_mat, a_diag, b_diag, vecs, count)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise _eigensolver_error(exc) from exc
        if vals[0] <= 0.0:
            raise EigensolverError(
                f"non-positive leading eigenvalue {vals[0]:.3e}; basis too coarse "
                "or overlap ill-conditioned"
            )
        solves.append(BlockSolve(vals, path, steps))
    return solves


def solve_sector(sector: FlattenedSector, n_max: int, k: int) -> ConvergenceStudy:
    """Lowest k levels at one truncation: a one-entry study, whose window is empty."""
    return convergence_study(sector, (n_max,), k)


def convergence_study(sector: FlattenedSector, n_max_grid, k: int,
                      tol_spacings: float = _TOL_SPACINGS) -> ConvergenceStudy:
    """Per-level eigenvalue drifts across an ascending n_max grid.

    One assembly at the top truncation, at quadrature order
    ``_QUADRATURE_FACTOR`` n_max of the top, serves the whole grid: the
    pairs of a lower truncation n' lead the top one's, so its matrices are
    the leading blocks of the top ones.  The Galerkin spaces are nested
    under the same discrete forms, so the Galerkin levels cannot rise with
    n_max; the reported Ritz levels can, by no more than their Ritz error.  The window
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
    order = _QUADRATURE_FACTOR * top.n_max
    a_top, b_top = assemble(sector, top, order)
    solves = solve_spectrum(a_top, b_top, k, [len(BasisTruncation(n)) for n in grid])
    n_common = min(len(solve.levels) for solve in solves)
    deltas = np.abs(np.diff([solve.levels[:n_common] for solve in solves], axis=0))
    tolerance = tol_spacings * (4.0 * math.pi / sector.geometry.area)
    # the first level past the window: a one-entry grid has no last row
    converged = int(np.flatnonzero(np.append(deltas[-1:] > tolerance, True))[0])
    return ConvergenceStudy(
        n_max_grid=grid,
        solves=tuple(solves),
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
