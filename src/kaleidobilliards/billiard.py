"""Dirichlet eigenproblem of the spherical Laplacian on an ordering sector.

The sector is flattened by a gnomonic projection (great circles become
straight lines) followed by an affine map onto the right isosceles triangle
with corners (-1,-1), (-1,1), (1,-1).  On that triangle the antisymmetrized
sine products h_{n,m} form a complete Dirichlet basis, and the spherical
Laplacian becomes a variable-coefficient operator handled with a weighted
symmetric Galerkin discretization:

    A_ij = int grad(h_i) . G grad(h_j) sqrt(g) ds dt,
    B_ij = int h_i h_j sqrt(g) ds dt,

with G the pushed-forward inverse metric and sqrt(g) the pulled-back sphere
measure.  Quadrature is tensor Gauss-Legendre collapsed onto the triangle at
the (-1, 1) vertex, which keeps t a function of one quadrature coordinate.
Both matrices then come from separable four-tensors over the sine indices:
small batched GEMMs over xi, then one (n^2 x Q)(Q x n^2) GEMM for B and one
(n^2 x 4Q)(4Q x n^2) GEMM for A, whose inner dimension stacks the g_ss,
g_st, transposed g_st and g_tt terms.  Each tensor is gathered onto the
basis pairs in blocks of rows and freed before the next is built, so at
most one n^4 tensor is alive at a time.

The generalized eigensolver computes only the k lowest eigenvalues.  A
convergence study assembles once, at its top truncation; a lower
truncation n' is the principal submatrix on the pairs with m <= n', so the
Galerkin spaces of the study are exactly nested.
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
    "EigenSpectrum",
    "ConvergenceStudy",
    "flatten_sector",
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
    jacobian_const: float  # |det d(u,v)/d(s,t)| = 1/|det affine|
    geometry: SectorGeometry

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
    index_pairs: tuple = field(default=())

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        if not self.index_pairs:
            pairs = tuple(
                (n, m) for n in range(1, self.n_max + 1) for m in range(n + 1, self.n_max + 1)
            )
            object.__setattr__(self, "index_pairs", pairs)
        for n, m in self.index_pairs:
            if not 1 <= n < m:
                raise ValueError(f"pair ({n},{m}) violates 1 <= n < m")

    def __len__(self):
        return len(self.index_pairs)


@dataclass(frozen=True)
class EigenSpectrum:
    values: np.ndarray  # ascending eigenvalues of -Laplacian
    effective_lambda: np.ndarray  # lambda with value = lambda (lambda + 1)
    truncation: BasisTruncation | None
    converged_count: int


@dataclass(frozen=True)
class ConvergenceStudy:
    n_max_grid: tuple
    spectra: tuple  # EigenSpectrum per grid entry
    deltas: np.ndarray  # (len(grid)-1, k) per-level |E_k(n_{j+1}) - E_k(n_j)|
    tolerance: float
    converged_count: int

    @property
    def last_deltas(self) -> np.ndarray:
        return self.deltas[-1]

    @property
    def final(self) -> EigenSpectrum:
        last = self.spectra[-1]
        return EigenSpectrum(
            values=last.values,
            effective_lambda=last.effective_lambda,
            truncation=last.truncation,
            converged_count=self.converged_count,
        )


# ---------------------------------------------------------------------------
# flattening


def _chart(geometry: SectorGeometry, axis, corners) -> FlattenedSector:
    """Gnomonic projection about ``axis``, then the affine map sending vertex k
    of ``geometry`` to ``corners[k]``."""
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
    return FlattenedSector(
        frame=frame,
        affine=affine,
        offset=offset,
        jacobian_const=1.0 / abs(float(np.linalg.det(affine))),
        geometry=geometry,
    )


def flatten_sector(masses: MassSequence, ordering) -> FlattenedSector:
    """Chart of the ordering sector about the normal of its outer-pair plane.

    x_{p4} - x_{p1} > 0 on the whole closed sector, so every vertex lies
    strictly inside the hemisphere about the inward normal of the (p1, p4)
    plane.  Vertex 1 joins the (p1,p2) and (p3,p4) planes, which are
    orthogonal in mass-weighted coordinates; that right angle goes to (-1,-1).
    """
    planes = coincidence_normals(masses)
    geometry = sector_geometry(planes, ordering)
    p = geometry.ordering
    return _chart(geometry, planes.oriented(p[0], p[3]), _CORNERS[[2, 0, 1]])


def octant_sector() -> FlattenedSector:
    """Manual sector bounded by three mutually orthogonal planes."""
    return sector_from_inward_normals(np.eye(3), label=("octant",))


def sector_from_inward_normals(inward, label=("manual",)) -> FlattenedSector:
    """General chart: gnomonic projection about the sector's own centroid."""
    geometry = geometry_from_inward_normals(inward, label)
    return _chart(geometry, geometry.vertices.sum(axis=0), _CORNERS)


# ---------------------------------------------------------------------------
# operator and basis


def _uv_coefficients(u, v) -> dict:
    """Second-order coefficients of the spherical Laplacian in the gnomonic chart."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w2 = 1.0 + u * u + v * v
    return {
        "g_uu": w2 * (1.0 + u * u),
        "g_uv": w2 * 2.0 * u * v,
        "g_vv": w2 * (1.0 + v * v),
        "b_u": w2 * 2.0 * u,
        "b_v": w2 * 2.0 * v,
    }


def _inside_triangle(s, t, tol: float = 1e-12) -> bool:
    return (s > -1.0 + tol) and (t > -1.0 + tol) and (s + t < -tol)


def operator_coefficients(sector: FlattenedSector, s: float, t: float) -> dict:
    """Coefficients {g_ss, g_st, g_tt, b_s, b_t} of the operator at one point.

    The convention matches the chart form: Laplacian = g_ss d_ss + g_st d_st
    + g_tt d_tt + b_s d_s + b_t d_t (the cross coefficient multiplies the
    mixed derivative once).
    """
    if not _inside_triangle(float(s), float(t)):
        raise ChartDomainError(f"point ({s}, {t}) lies outside the open triangle")
    u, v = sector.to_uv(s, t)
    cuv = _uv_coefficients(u, v)
    m = np.array([[cuv["g_uu"], 0.5 * cuv["g_uv"]], [0.5 * cuv["g_uv"], cuv["g_vv"]]])
    a = sector.affine
    mst = a @ m @ a.T
    b = a @ np.array([cuv["b_u"], cuv["b_v"]])
    return {
        "g_ss": float(mst[0, 0]),
        "g_st": float(2.0 * mst[0, 1]),
        "g_tt": float(mst[1, 1]),
        "b_s": float(b[0]),
        "b_t": float(b[1]),
    }


def basis_function(n: int, m: int, s, t):
    """Antisymmetrized right-triangle Dirichlet mode h_{n,m}.

    Equals sin(n pi (s+1)/2) sin(m pi (t-1)/2) - (n <-> m); the eight-term
    exponential combination collapses to this two-product difference.
    """
    if not 1 <= n < m:
        raise ValueError("basis needs 1 <= n < m")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    alpha = 0.5 * math.pi * (s + 1.0)
    beta = 0.5 * math.pi * (t - 1.0)
    return np.sin(n * alpha) * np.sin(m * beta) - np.sin(m * alpha) * np.sin(n * beta)


# ---------------------------------------------------------------------------
# assembly

# rows of the pair matrix gathered per block: bounds the gather and the
# symmetrization temporaries at a few MB whatever the basis size
_ROW_BLOCK = 16


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


def _four_tensor(terms) -> np.ndarray:
    """T[p,q,r,s] = sum over terms and the grid of W f1_p f2_q g1_r g2_s.

    Each term is (f1, f2, weight, g1, g2): f* have shape (n, Qxi, Qeta)
    (s-direction factors), g* have shape (n, Qeta) (t-direction factors),
    weight has shape (Qxi, Qeta).  The xi sums are small batched GEMMs; the
    terms are stacked along the eta axis, so the whole sum is one
    (n^2 x terms Qeta)(terms Qeta x n^2) GEMM.
    """
    n, _, q_eta = terms[0][0].shape
    m = np.empty((len(terms), q_eta, n, n))
    k = np.empty_like(m)
    for i, (f1, f2, weight, g1, g2) in enumerate(terms):
        f1s = np.ascontiguousarray(f1.transpose(2, 0, 1))  # (Qeta, n, Qxi)
        f2s = np.ascontiguousarray(f2.transpose(2, 1, 0))  # (Qeta, Qxi, n)
        np.matmul(f1s * weight.T[:, None, :], f2s, out=m[i])
        np.multiply(g1.T[:, :, None], g2.T[:, None, :], out=k[i])
    m = m.reshape(-1, n * n)
    return (m.T @ k.reshape(-1, n * n)).reshape(n, n, n, n)


def _gather_pairs(t4: np.ndarray, pairs) -> np.ndarray:
    """Matrix of the antisymmetrized basis h_(n,m) from the four-tensor.

    Entry (i, j) is T[n_i,n_j,m_i,m_j] - T[n_i,m_j,m_i,n_j]
    - T[m_i,n_j,n_i,m_j] + T[m_i,m_j,n_i,n_j].  With
    D_i = T[n_i,:,m_i,:] - T[m_i,:,n_i,:] that is D_i[n_j,m_j] - D_i[m_j,n_j],
    so a block of rows reads contiguous n x n slices of T, and only
    block-sized temporaries are made.
    """
    n_i, m_i = np.array(pairs).T - 1
    out = np.empty((len(pairs), len(pairs)))
    for start in range(0, len(pairs), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        d = t4[n_i[rows], :, m_i[rows], :]
        d -= t4[m_i[rows], :, n_i[rows], :]
        np.subtract(d[:, n_i, m_i], d[:, m_i, n_i], out=out[rows])
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

    B comes from one four-tensor, A from one more whose GEMM stacks the g_ss
    term, the g_st cross term, that term's (1,0,3,2) transpose (what
    cross + cross.T is after the gather) and the g_tt term.
    """
    if quadrature_order < 3 * trunc.n_max:
        raise QuadratureError(
            f"quadrature_order {quadrature_order} < 3 n_max = {3 * trunc.n_max}"
        )
    s, t, quad_w = _quadrature_grid(quadrature_order)
    w_b, w_ss, w_st, w_tt = _grid_weights(sector, s, t, quad_w)
    phi, dphi = _sine_factors(trunc.n_max, s, +1.0)  # (n, Qxi, Qeta)
    psi, dpsi = _sine_factors(trunc.n_max, t, -1.0)  # (n, Qeta)

    pairs = trunc.index_pairs
    # A first: its GEMM has the larger stacked factors, and B is not yet alive
    a_mat = _gather_pairs(
        _four_tensor([
            (dphi, dphi, w_ss, psi, psi),
            (dphi, phi, w_st, psi, dpsi),
            (phi, dphi, w_st, dpsi, psi),
            (phi, phi, w_tt, dpsi, dpsi),
        ]),
        pairs,
    )
    b_mat = _gather_pairs(_four_tensor([(phi, phi, w_b, psi, psi)]), pairs)
    _symmetrize(a_mat, "A")
    _symmetrize(b_mat, "B")
    return a_mat, b_mat


# ---------------------------------------------------------------------------
# spectrum


def solve_spectrum(a_mat: np.ndarray, b_mat: np.ndarray, k: int,
                   truncation: BasisTruncation | None = None) -> EigenSpectrum:
    """Lowest k eigenvalues of A x = E B x (symmetric-definite, dense).

    Only the min(k, N) lowest values are computed.  The solver factors B
    itself, so a B that is not positive-definite fails here.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    count = min(k, len(a_mat))
    try:
        vals = scipy.linalg.eigh(
            a_mat, b_mat, eigvals_only=True, check_finite=False, driver="gvx",
            subset_by_index=[0, count - 1],
        )
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        # LAPACK names the order of the leading minor of B that is not
        # positive-definite
        raise EigensolverError(
            f"generalized eigensolver failed ({exc}); an overlap matrix that is "
            "not positive-definite needs a higher quadrature_order"
        ) from exc
    if vals[0] <= 0.0:
        raise EigensolverError(
            f"non-positive leading eigenvalue {vals[0]:.3e}; basis too coarse "
            "or overlap ill-conditioned"
        )
    lam = 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * vals))
    return EigenSpectrum(
        values=vals,
        effective_lambda=lam,
        truncation=truncation,
        converged_count=len(vals),
    )


def solve_sector(sector: FlattenedSector, n_max: int, k: int,
                 quadrature_order: int | None = None) -> EigenSpectrum:
    trunc = BasisTruncation(n_max)
    order = quadrature_order if quadrature_order is not None else 3 * n_max
    a_mat, b_mat = assemble(sector, trunc, order)
    return solve_spectrum(a_mat, b_mat, k, truncation=trunc)


def convergence_study(sector: FlattenedSector, n_max_grid, k: int,
                      tolerance: float = 1e-2,
                      quadrature_order: int | None = None) -> ConvergenceStudy:
    """Per-level eigenvalue drifts across an ascending n_max grid.

    One assembly at the top truncation, with quadrature_order (default
    3 n_max of the top), serves the whole grid: a lower truncation n' keeps
    the pairs with m <= n', so its matrices are principal submatrices of
    the top ones.  The Galerkin spaces are nested under the same discrete
    forms, and the eigenvalues cannot rise with n_max.
    """
    grid = tuple(int(n) for n in n_max_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_max grid must be strictly ascending")
    top = BasisTruncation(grid[-1])
    order = quadrature_order if quadrature_order is not None else 3 * top.n_max
    a_top, b_top = assemble(sector, top, order)
    m_of_pair = np.array([m for _, m in top.index_pairs])
    spectra = []
    for n_max in grid[:-1]:
        rows = np.flatnonzero(m_of_pair <= n_max)
        keep = np.ix_(rows, rows)
        spectra.append(
            solve_spectrum(a_top[keep], b_top[keep], k, truncation=BasisTruncation(n_max))
        )
    spectra.append(solve_spectrum(a_top, b_top, k, truncation=top))
    n_common = min(len(sp.values) for sp in spectra)
    deltas = np.array(
        [
            np.abs(nxt.values[:n_common] - prv.values[:n_common])
            for prv, nxt in zip(spectra, spectra[1:])
        ]
    )
    above = np.nonzero(deltas[-1] > tolerance)[0]
    converged = int(above[0]) if above.size else n_common
    return ConvergenceStudy(
        n_max_grid=grid,
        spectra=tuple(spectra),
        deltas=deltas,
        tolerance=tolerance,
        converged_count=converged,
    )


def spectrum_to_csv(spectrum: EigenSpectrum, deltas=None) -> str:
    lines = ["k,eigenvalue,lambda_eff,delta_last_refinement"]
    for i, (val, lam) in enumerate(zip(spectrum.values, spectrum.effective_lambda)):
        delta = "" if deltas is None or i >= len(deltas) else f"{deltas[i]:.12g}"
        lines.append(f"{i + 1},{val:.12g},{lam:.12g},{delta}")
    return "\n".join(lines) + "\n"
