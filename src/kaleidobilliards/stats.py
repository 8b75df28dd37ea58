"""Weyl counting, spectral unfolding, and nearest-neighbor spacing statistics.

Unfolding uses the analytic two-term Weyl staircase built from the sector's
area and perimeter, so no fitting degree of freedom enters.  Kolmogorov-
Smirnov distances are computed from the exact empirical CDF, never from the
binned histogram.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientLevelsError
from .geometry import SectorGeometry, sig12

__all__ = [
    "SpacingHistogram",
    "weyl_count",
    "unfold",
    "spacing_histogram",
    "weyl_residuals",
    "poisson_pdf",
    "poisson_cdf",
    "wigner_pdf",
    "wigner_cdf",
    "weyl_residuals_to_csv",
    "histogram_to_csv",
    "reference_curves_to_csv",
    "summary_to_json",
]


def weyl_count(e_tilde, geometry: SectorGeometry):
    """Two-term Weyl estimate of the counting function on the unit sphere."""
    e = np.asarray(e_tilde, dtype=float)
    if np.any(e < 0):
        raise ValueError("scaled energy must be non-negative")
    val = (geometry.area * e - geometry.perimeter * np.sqrt(e)) / (4.0 * math.pi)
    return float(val) if val.ndim == 0 else val


def unfold(levels, geometry: SectorGeometry) -> np.ndarray:
    """Map ascending converged levels through the Weyl staircase; mean spacing -> 1."""
    levels = np.asarray(levels, dtype=float)
    if len(levels) < 50:
        raise InsufficientLevelsError(
            f"only {len(levels)} converged levels; at least 50 are required for statistics"
        )
    return np.asarray(weyl_count(levels, geometry))


def poisson_pdf(s):
    return np.exp(-np.asarray(s, dtype=float))


def poisson_cdf(s):
    return 1.0 - np.exp(-np.asarray(s, dtype=float))


def wigner_pdf(s):
    s = np.asarray(s, dtype=float)
    return 0.5 * math.pi * s * np.exp(-0.25 * math.pi * s * s)


def wigner_cdf(s):
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-0.25 * math.pi * s * s)


def _ks_distance(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance from the exact empirical CDF."""
    s = np.sort(samples)
    n = len(s)
    ref = cdf(s)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class SpacingHistogram:
    bin_edges: np.ndarray
    densities: np.ndarray
    n_spacings: int
    ks_poisson: float
    ks_wigner: float
    chi2_poisson: float
    chi2_wigner: float
    spacings: np.ndarray


# spacing histogram bins, the default of ``spacing_histogram`` and ``--bins``
_BINS = 24


def spacing_histogram(unfolded, bins: int = _BINS) -> SpacingHistogram:
    """Density-normalized nearest-neighbor spacing histogram with distances.

    Zero spacings from exact degeneracies are retained; they carry the
    integrability signal.
    """
    spacings = np.diff(unfolded)
    if len(spacings) < 50:
        raise InsufficientLevelsError(
            f"only {len(spacings)} spacings; at least 50 are required"
        )
    if np.any(spacings < -1e-9):
        raise ValueError("unfolded levels are not ascending")
    spacings = np.clip(spacings, 0.0, None)
    top = max(4.0, float(spacings.max()) * 1.0001)
    edges = np.linspace(0.0, top, bins + 1)
    dens, _ = np.histogram(spacings, bins=edges, density=True)
    widths = np.diff(edges)
    chi2_p = float(np.sum(widths * (dens - poisson_pdf(0.5 * (edges[:-1] + edges[1:]))) ** 2))
    chi2_w = float(np.sum(widths * (dens - wigner_pdf(0.5 * (edges[:-1] + edges[1:]))) ** 2))
    return SpacingHistogram(
        bin_edges=edges,
        densities=dens,
        n_spacings=len(spacings),
        ks_poisson=_ks_distance(spacings, poisson_cdf),
        ks_wigner=_ks_distance(spacings, wigner_cdf),
        chi2_poisson=chi2_p,
        chi2_wigner=chi2_w,
        spacings=spacings,
    )


def weyl_residuals(levels, geometry: SectorGeometry):
    """Staircase-minus-Weyl series over ascending levels (a converged window).

    Returns (energies, staircase, weyl, residual_after, residual_before):
    the staircase takes the value k just after the k-th level and k-1 just
    before it, so both one-sided residuals bound the sup over the window.
    """
    e = np.asarray(levels, dtype=float)
    stair = np.arange(1, len(e) + 1, dtype=float)
    weyl = weyl_count(e, geometry)
    return e, stair, weyl, stair - weyl, (stair - 1.0) - weyl


def weyl_residuals_to_csv(levels, geometry: SectorGeometry) -> str:
    """CSV of ``weyl_residuals`` over ascending levels, one row per level."""
    e, stair, weyl, after, _ = weyl_residuals(levels, geometry)
    lines = ["k,eigenvalue,staircase,weyl,residual"]
    for i in range(len(e)):
        lines.append(f"{i + 1},{e[i]:.12g},{stair[i]:.12g},{weyl[i]:.12g},{after[i]:.12g}")
    return "\n".join(lines) + "\n"


def histogram_to_csv(hist: SpacingHistogram) -> str:
    lines = ["bin_left,bin_right,density"]
    for left, right, dens in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.densities):
        lines.append(f"{left:.12g},{right:.12g},{dens:.12g}")
    return "\n".join(lines) + "\n"


def reference_curves_to_csv() -> str:
    """Poisson and Wigner spacing densities on 401 points of [0, 4]."""
    s = np.linspace(0.0, 4.0, 401)
    lines = ["s,poisson,wigner"]
    for si, pi, wi in zip(s, poisson_pdf(s), wigner_pdf(s)):
        lines.append(f"{si:.12g},{pi:.12g},{wi:.12g}")
    return "\n".join(lines) + "\n"


def summary_to_json(hist: SpacingHistogram, unfolded) -> str:
    return json.dumps(
        {
            "n_levels": len(unfolded),
            "mean_spacing": sig12(float(np.mean(np.diff(unfolded)))),
            "ks_poisson": sig12(hist.ks_poisson),
            "ks_wigner": sig12(hist.ks_wigner),
            "chi2_poisson": sig12(hist.chi2_poisson),
            "chi2_wigner": sig12(hist.chi2_wigner),
        },
        indent=2,
    ) + "\n"
