"""Dirichlet eigenproblem of the spherical Laplacian on an ordering sector.

The sector is flattened by a gnomonic projection about its vertex centroid
(great circles become straight lines) followed by an affine map onto the
right isosceles triangle with corners (-1,-1), (-1,1), (1,-1).  On that
triangle the spherical Laplacian becomes a variable-coefficient operator
handled with a weighted symmetric Galerkin discretization:

    A_ij = int grad(h_i) . G grad(h_j) sqrt(g) ds dt,
    B_ij = int h_i h_j sqrt(g) ds dt,

with G the pushed-forward inverse metric and sqrt(g) the pulled-back sphere
measure.  The basis h_i and the assembly of A and B are ``sine_basis``'s,
and the eigensolve is ``pencil``'s.  A convergence study assembles once, at
its top truncation, and solves each n' on the leading block of that
assembly, so the Galerkin spaces of the study are exactly nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, HemisphereError
from .geometry import (
    SectorGeometry,
    coincidence_normals,
    geometry_from_inward_normals,
    sector_geometry,
)
from .masses import MassSequence
from .pencil import solve_spectrum
from .sine_basis import BasisTruncation, assemble, basis_size, chart_blocks, quadrature_floor

__all__ = [
    "FlattenedSector",
    "ConvergenceStudy",
    "flatten_sector",
    "flatten_geometry",
    "octant_sector",
    "operator_coefficients",
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

    def grid_weights(self, s, t, quad_w) -> tuple:
        """Quadrature weights times sqrt(g) and the entries of G sqrt(g).

        Returns (sqrt_g, g_ss, g_st, g_tt), each multiplied by ``quad_w``.
        """
        u, v = self.to_uv(s, np.broadcast_to(t, s.shape))
        w2 = 1.0 + u * u + v * v
        sqrt_g = w2**-1.5 * self.jacobian_const
        winv = w2**-0.5 * self.jacobian_const
        a = self.affine
        # G sqrt(g) = A M A^T w^{-1} / |det A| with M = [[1+u^2, uv], [uv, 1+v^2]]
        m_uu, m_uv, m_vv = 1.0 + u * u, u * v, 1.0 + v * v
        g_ss = (a[0, 0] * (a[0, 0] * m_uu + a[0, 1] * m_uv)
                + a[0, 1] * (a[0, 0] * m_uv + a[0, 1] * m_vv)) * winv
        g_st = (a[1, 0] * (a[0, 0] * m_uu + a[0, 1] * m_uv)
                + a[1, 1] * (a[0, 0] * m_uv + a[0, 1] * m_vv)) * winv
        g_tt = (a[1, 0] * (a[1, 0] * m_uu + a[1, 1] * m_uv)
                + a[1, 1] * (a[1, 0] * m_uv + a[1, 1] * m_vv)) * winv
        return sqrt_g * quad_w, g_ss * quad_w, g_st * quad_w, g_tt * quad_w


@dataclass(frozen=True)
class ConvergenceStudy:
    """The record of a sector solve: levels at every truncation of a grid."""

    n_max_grid: tuple
    # per grid entry: the ascending eigenvalues of -Laplacian, the min(k, N')
    # lowest of the union of the chart's blocks
    spectra: tuple
    solves: tuple  # per grid entry: one ``pencil.BlockSolve`` per block
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
# operator


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
    sqrt_g, g_ss, g_st, g_tt = sector.grid_weights(s, t, 1.0)
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
# study

_TOL_SPACINGS = 0.05  # default drift bound of a window, in mean spacings 4 pi/area


def solve_sector(sector: FlattenedSector, n_max: int, k: int) -> ConvergenceStudy:
    """Lowest k levels at one truncation: a one-entry study, whose window is empty."""
    return convergence_study(sector, (n_max,), k)


def convergence_study(sector: FlattenedSector, n_max_grid, k: int,
                      tol_spacings: float = _TOL_SPACINGS) -> ConvergenceStudy:
    """Per-level eigenvalue drifts across an ascending n_max grid.

    One assembly at the top truncation, at the basis's quadrature order
    (``quadrature_floor``) of the top, serves the whole grid: the functions
    of a lower truncation n' lead the top one's, so its matrices are the
    leading blocks of the top ones.  The Galerkin spaces are nested
    under the same discrete forms, so the Galerkin levels cannot rise with
    n_max; the reported Ritz levels can, by no more than their Ritz error.  The window
    is the lowest levels whose last drift is at most tol_spacings mean
    spacings 4 pi/area; a one-entry grid has no drift and no window.

    The chart is assembled and solved as the blocks the basis splits it
    into (``chart_blocks``), each ordered so that a lower truncation is a
    leading block of it.  Each block is solved for min(k, its size) levels
    at every truncation where it has a function, and a truncation of N'
    functions keeps the min(k, N') lowest levels of the union.
    """
    grid = tuple(int(n) for n in n_max_grid)
    if not grid:
        raise ValueError("n_max grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_max grid must be strictly ascending")
    if not 0.0 < tol_spacings < math.inf:
        raise ValueError(f"tol_spacings must be positive and finite, got {tol_spacings}")
    # solve_spectrum checks k too, but only after the assembly
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    top = BasisTruncation(grid[-1])
    order = quadrature_floor(top.n_max)
    blocks = chart_blocks(sector, top)
    sizes = [basis_size(n) for n in grid]
    solves = [[] for _ in grid]  # per truncation, its blocks that have functions
    for block, (a_mat, b_mat) in zip(blocks, assemble(sector, top, order, blocks)):
        # a block's functions among a truncation's lead the block
        counts = [int(np.count_nonzero(block < size)) for size in sizes]
        held = [j for j, count in enumerate(counts) if count]
        for j, solve in zip(held, solve_spectrum(a_mat, b_mat, k, [counts[j] for j in held])):
            solves[j].append(solve)
    spectra = [np.sort(np.concatenate([solve.levels for solve in held]))[:min(k, size)]
               for held, size in zip(solves, sizes)]
    n_common = min(len(levels) for levels in spectra)
    deltas = np.abs(np.diff([levels[:n_common] for levels in spectra], axis=0))
    tolerance = tol_spacings * (4.0 * math.pi / sector.geometry.area)
    # the first level past the window: a one-entry grid has no last row
    converged = int(np.flatnonzero(np.append(deltas[-1:] > tolerance, True))[0])
    return ConvergenceStudy(
        n_max_grid=grid,
        spectra=tuple(spectra),
        solves=tuple(tuple(held) for held in solves),
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
