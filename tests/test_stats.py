import math

import numpy as np
import pytest

from kaleidobilliards.billiard import convergence_study, octant_sector, solve_sector
from kaleidobilliards.errors import InsufficientLevelsError
from kaleidobilliards.geometry import geometry_from_inward_normals
from kaleidobilliards.stats import (
    poisson_cdf,
    poisson_pdf,
    spacing_histogram,
    unfold,
    weyl_count,
    weyl_residuals,
    wigner_cdf,
    wigner_pdf,
)

OCTANT = geometry_from_inward_normals(np.eye(3))


def octant_exact_spectrum(count):
    """Dirichlet octant levels lam = 3, 5, 5, 7, 7, 7, ... exactly."""
    values = []
    lam = 3
    while len(values) < count:
        mult = (lam - 3) // 2 + 1
        values.extend([lam * (lam + 1.0)] * mult)
        lam += 2
    return np.array(values[:count], dtype=float)


def synthetic_spectrum_from_weyl(geometry, count):
    """Invert the Weyl staircase at integer counts (quadratic in sqrt(E))."""
    area, per = geometry.area, geometry.perimeter
    levels = []
    for k in range(1, count + 1):
        # (A x^2 - l x)/(4 pi) = k with x = sqrt(E)
        disc = per * per + 16.0 * math.pi * area * k
        x = (per + math.sqrt(disc)) / (2.0 * area)
        levels.append(x * x)
    return np.array(levels)


# -- weyl counting ------------------------------------------------------------

def test_weyl_zero_at_zero():
    assert weyl_count(0.0, OCTANT) == 0.0


def test_weyl_octant_closed_form():
    # (A E - l sqrt(E))/(4 pi) at E = 12 with A = pi/2, l = 3 pi /2
    expected = (math.pi / 2 * 12 - 3 * math.pi / 2 * math.sqrt(12)) / (4 * math.pi)
    assert weyl_count(12.0, OCTANT) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx((6 - 3 * math.sqrt(3)) / 4, rel=1e-12)


def test_weyl_rejects_negative_energy():
    with pytest.raises(ValueError):
        weyl_count(-1.0, OCTANT)


def test_weyl_tracks_exact_octant_staircase():
    levels = octant_exact_spectrum(200)
    counts = weyl_count(levels, OCTANT)
    stair = np.arange(1, 201)
    # two-term Weyl stays within O(sqrt(E)) of the true staircase
    assert np.abs(stair - counts).max() < 0.75 * math.sqrt(levels[-1])


# -- unfolding -----------------------------------------------------------------

def test_unfold_requires_50_levels():
    with pytest.raises(InsufficientLevelsError):
        unfold(octant_exact_spectrum(49), OCTANT)


def test_unfold_monotone_and_unit_mean_spacing():
    unf = unfold(octant_exact_spectrum(300), OCTANT)
    assert np.all(np.diff(unf) >= -1e-12)
    assert np.mean(np.diff(unf)) == pytest.approx(1.0, abs=0.05)


def test_unfold_weyl_inverse_round_trip():
    # unfolding levels manufactured from the Weyl staircase itself
    unf = unfold(synthetic_spectrum_from_weyl(OCTANT, 500), OCTANT)
    spacings = np.diff(unf)
    assert abs(spacings.mean() - 1.0) < 0.02
    assert spacings.std() < 1e-9  # exactly unit spacings by construction


def _unfold_polyfit(levels):
    """Reference unfolding: quintic fit of the empirical staircase."""
    stair = np.arange(1, len(levels) + 1) - 0.5
    return np.polyval(np.polyfit(levels, stair, 5), levels)


def test_unfold_polyfit_cross_check():
    levels = octant_exact_spectrum(300)
    mean_w = np.mean(np.diff(unfold(levels, OCTANT)))
    mean_p = np.mean(np.diff(_unfold_polyfit(levels)))
    assert mean_p == pytest.approx(mean_w, rel=0.05)


def test_unfold_respects_converged_window():
    # the last refinement's drifts exceed 0.5 from level 75 on: 0.0625 of
    # the octant's mean spacing 8
    study = convergence_study(octant_sector(), (24, 28), k=100, tol_spacings=0.0625)
    assert 50 <= study.converged_count < 100
    assert np.array_equal(study.window, study.values[:study.converged_count])
    assert np.all(study.last_deltas[:study.converged_count] <= 0.5)
    assert study.last_deltas[study.converged_count] > 0.5
    assert len(unfold(study.window, OCTANT)) == study.converged_count


# -- reference densities ---------------------------------------------------------

def test_reference_values_at_zero():
    assert poisson_pdf(0.0) == 1.0
    assert wigner_pdf(0.0) == 0.0
    assert poisson_cdf(0.0) == 0.0
    assert wigner_cdf(0.0) == 0.0


def test_reference_densities_normalized():
    s = np.linspace(0, 40, 400001)
    for pdf in (poisson_pdf, wigner_pdf):
        assert np.trapezoid(pdf(s), s) == pytest.approx(1.0, abs=1e-6)


def test_wigner_mean_spacing_is_one():
    s = np.linspace(0, 40, 400001)
    assert np.trapezoid(s * wigner_pdf(s), s) == pytest.approx(1.0, abs=1e-6)


# -- spacing histogram ------------------------------------------------------------

def test_histogram_mass_is_one():
    hist = spacing_histogram(unfold(octant_exact_spectrum(300), OCTANT), bins=24)
    mass = np.sum(hist.densities * np.diff(hist.bin_edges))
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= hist.ks_poisson <= 1.0
    assert 0.0 <= hist.ks_wigner <= 1.0


def test_octant_degenerate_spacings_retained():
    hist = spacing_histogram(unfold(octant_exact_spectrum(300), OCTANT), bins=24)
    zero_fraction = np.mean(hist.spacings < 1e-9)
    # multiplicity (lam-3)/2 + 1 means most gaps vanish; with exactly zero
    # gaps both reference CDFs start at 0, so the KS distances tie
    assert zero_fraction > 0.5
    assert hist.ks_poisson <= hist.ks_wigner


def test_solved_octant_split_degeneracies_prefer_poisson():
    # the numerical solver splits exact degeneracies by tiny amounts, which
    # lands the jam of near-zero spacings on the Poisson side of the CDF gap
    study = solve_sector(octant_sector(), n_max=40, k=120)
    hist = spacing_histogram(unfold(study.values, OCTANT), bins=24)
    assert hist.ks_poisson < hist.ks_wigner


def test_synthetic_poisson_sample_prefers_poisson():
    rng = np.random.default_rng(12345)
    eps = np.cumsum(rng.exponential(1.0, size=5000))
    hist = spacing_histogram(eps, bins=24)
    assert hist.ks_poisson < 0.02
    assert hist.ks_poisson < hist.ks_wigner


def test_synthetic_goe_sample_prefers_wigner():
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(60, 80, 80))
    spacings = []
    for m in mats:
        h = (m + m.transpose()) / math.sqrt(2)
        w = np.linalg.eigvalsh(h)
        mid = w[30:50]
        s = np.diff(mid)
        spacings.extend(s / s.mean())
    eps = np.cumsum(spacings)
    hist = spacing_histogram(np.asarray(eps), bins=24)
    assert hist.ks_wigner < hist.ks_poisson


def test_histogram_needs_enough_spacings():
    # 50 unfolded levels pass unfold's guard but leave 49 spacings
    unfolded = unfold(octant_exact_spectrum(50), OCTANT)
    with pytest.raises(InsufficientLevelsError, match="only 49 spacings"):
        spacing_histogram(unfolded)
    spacing_histogram(unfold(octant_exact_spectrum(51), OCTANT))


# -- weyl residual oracle -----------------------------------------------------------

def test_weyl_residual_bound_and_crossings_on_solved_octant():
    study = solve_sector(octant_sector(), n_max=40, k=60)
    e, stair, weyl, after, before = weyl_residuals(study.values, OCTANT)
    bound = 0.75 * np.sqrt(e)
    assert np.abs(after).max() < bound.max()
    assert np.all(np.abs(after) < np.maximum(bound, 2.0))
    signs = np.sign(np.concatenate([after, before]))
    assert (signs > 0).any() and (signs < 0).any()
