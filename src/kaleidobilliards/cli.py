"""Command-line entry point wiring the library into reproducible runs.

Every command validates its inputs up front (exit 2), runs the corresponding
module pipeline (numerical failures exit 3), writes data files atomically,
and drops a run-metadata JSON (inputs, package/library versions, wall time)
next to the outputs.  Data files carry no timestamps, so identical configs
reproduce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import InsufficientLevelsError, KaleidoError, MassDomainError
from . import billiard as B
from . import exact as E
from . import geometry as G
from . import groups as GR
from . import masses as M
from . import stats as ST
from .geometry import sig12

THREAD_ENV = "KBILLIARDS_THREADS"


@dataclass
class RunConfig:
    command: str
    masses: tuple | None = None
    ordering: tuple | None = None
    spec: str | None = None
    n_max: int = 40
    n_max_grid: tuple | None = None
    quadrature_order: int | None = None
    k_levels: int = 50
    e_max: float = 25.0
    bins: int = 24
    grid: int = 100
    r_min: float | None = None
    r_max: float | None = None
    tol_spacings: float = 0.05
    ground_state_path: str | None = None
    output_path: str | None = None


# ---------------------------------------------------------------------------
# helpers


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_NOT_INPUTS = ("command", "r_min", "r_max", "ground_state_path", "output_path")


def _write_metadata(base_path: str, config: RunConfig, wall: float, extra=None) -> None:
    meta = {
        "command": config.command,
        "inputs": {k: v for k, v in asdict(config).items() if k not in _NOT_INPUTS},
        "versions": {
            "kaleidobilliards": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "wall_time_s": round(wall, 3),
    }
    if extra:
        meta.update(extra)
    if os.path.isdir(base_path):
        target = os.path.join(base_path, "run_metadata.json")
    else:
        target = base_path + ".meta.json"
    _atomic_write(target, json.dumps(meta, indent=2) + "\n")


def distinct_sector_orderings(masses: M.MassSequence) -> list:
    """Representative ordering + multiplicity per congruence class.

    Orderings are congruent when their mass sequences, rounded to 12
    digits, are equal (equal-mass relabeling) or reversed (inversion).
    """
    groups: dict = {}
    for perm in itertools.permutations(range(1, len(masses) + 1)):
        seq = tuple(round(masses.masses[p - 1], 12) for p in perm)
        sig = min(seq, seq[::-1])
        groups.setdefault(sig, []).append(perm)
    return sorted((min(v), len(v)) for v in groups.values())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Validation failure; mapped to exit code 2."""


def _stats_workers() -> int:
    """Sector threads for ``stats``: KBILLIARDS_THREADS, default 1."""
    text = os.environ.get(THREAD_ENV, "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise SystemExit2(f"{THREAD_ENV} must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# command implementations


def _cmd_classify(config: RunConfig) -> dict:
    seq = M.MassSequence(config.masses)
    result = M.classify(seq)
    integrable = result.max_deviation < 1e-10
    line = (
        f"{result.best.name} bracket {list(result.best.bracket)} "
        f"max deviation {result.max_deviation:.6e} rad "
        f"({'integrable' if integrable else 'not integrable'} in this order)"
    )
    print(line)
    if config.output_path:
        payload = {
            "masses": list(seq.masses),
            "best": result.best.name,
            "bracket": list(result.best.bracket),
            "reversed_bracket": result.reversed_bracket,
            "measured_angles": [sig12(a) for a in result.measured_angles],
            "target_angles": [sig12(a) for a in result.target_angles],
            "max_deviation": sig12(result.max_deviation),
            "integrable": integrable,
        }
        _atomic_write(config.output_path, json.dumps(payload, indent=2) + "\n")
    return {}


def _cmd_family(config: RunConfig) -> dict:
    spec = M.coxeter_spec(config.spec)
    lo, hi = M.feasibility_interval(spec)
    r_min = config.r_min if config.r_min is not None else hi * 1e-3
    r_max = config.r_max if config.r_max is not None else hi * (1.0 - 1e-6)
    ratios = np.linspace(r_min, r_max, config.grid)
    curve = M.family_curve(spec, ratios)
    _atomic_write(config.output_path, M.write_family_csv(curve))
    return {
        "feasible_interval": [sig12(lo), sig12(hi)],
        "ratio_range": [r_min, r_max],
        "n_points": len(curve.points),
        "infeasible_points": [[r, reason] for r, reason in curve.infeasible],
    }


def _cmd_geometry(config: RunConfig) -> dict:
    seq = M.MassSequence(config.masses)
    geom = G.sector_geometry(G.coincidence_normals(seq), config.ordering)
    _atomic_write(config.output_path, G.geometry_to_json(geom) + "\n")
    return {}


def _cmd_group(config: RunConfig) -> dict:
    if config.masses:
        seq = M.MassSequence(config.masses)
    else:
        spec = M.coxeter_spec(config.spec)
        lo, hi = M.feasibility_interval(spec)
        seq = M.generate_family(spec, 1.0, 0.5 * hi)
    grp = GR.group_from_masses(seq)
    _atomic_write(config.output_path, GR.group_to_json(grp) + "\n")
    return {}


def _cmd_exact(config: RunConfig) -> dict:
    spec = M.coxeter_spec(config.spec)
    levels = E.energy_levels(spec, config.e_max, spec.rank + 1)
    _atomic_write(config.output_path, E.levels_to_csv(levels))
    # the multiplicity of every lambda up to the largest one in the CSV
    top = max((lv.lam for lv in levels), default=-1)
    extra = {
        "n_levels": len(levels),
        "lambda_spectrum": {str(k): v for k, v in GR.lambda_spectrum(spec, top).items()},
    }
    if config.ground_state_path:
        lo, hi = M.feasibility_interval(spec)
        grp = GR.group_from_masses(M.generate_family(spec, 1.0, 0.5 * hi))
        state = E.ground_state(grp)
        _atomic_write(config.ground_state_path, state.polynomial.to_json() + "\n")
        extra["ground_state_degree"] = state.polynomial.degree
    return extra


_DRIFT_TOL = 1e-2  # eigenvalue drift under which billiard and weyl count a level converged


def _study(config: RunConfig, sector, tolerance: float) -> B.ConvergenceStudy:
    """The convergence study over the command's truncations."""
    return B.convergence_study(
        sector,
        _truncations(config),
        config.k_levels,
        tolerance=tolerance,
        quadrature_order=config.quadrature_order,
    )


def _discretization(study: B.ConvergenceStudy) -> dict:
    """Basis size and quadrature order of the study's top truncation."""
    return {
        "basis_size": len(study.final.truncation),
        "quadrature_order": study.quadrature_order,
    }


def _cmd_billiard(config: RunConfig) -> dict:
    seq = M.MassSequence(config.masses)
    sector = B.flatten_sector(seq, config.ordering)
    study = _study(config, sector, _DRIFT_TOL)
    spectrum = study.final
    _atomic_write(config.output_path, B.spectrum_to_csv(spectrum, study.last_deltas))
    return {
        "area": sig12(sector.geometry.area),
        "perimeter": sig12(sector.geometry.perimeter),
        "n_levels": len(spectrum.values),
        "first_lambda_eff": sig12(spectrum.effective_lambda[0]),
        **_discretization(study),
    }


def _weyl_csv(spectrum, geometry) -> tuple:
    """Weyl-residual CSV of the converged window, and its residual column."""
    e, stair, weyl, after, _ = ST.weyl_residuals(spectrum, geometry)
    lines = ["k,eigenvalue,staircase,weyl,residual"]
    for i in range(len(e)):
        lines.append(
            f"{i + 1},{e[i]:.12g},{stair[i]:.12g},{weyl[i]:.12g},{after[i]:.12g}"
        )
    return "\n".join(lines) + "\n", after


def _cmd_weyl(config: RunConfig) -> dict:
    seq = M.MassSequence(config.masses)
    sector = B.flatten_sector(seq, config.ordering)
    study = _study(config, sector, _DRIFT_TOL)
    spectrum = study.final
    if spectrum.converged_count == 0:
        raise InsufficientLevelsError("no level converged across --n-max-grid")
    text, after = _weyl_csv(spectrum, sector.geometry)
    _atomic_write(config.output_path, text)
    return {
        "max_abs_residual": sig12(np.abs(after).max()),
        **_discretization(study),
    }


def _truncations(config: RunConfig) -> tuple:
    """The ascending basis truncations a solver command assembles."""
    if config.n_max_grid:
        return config.n_max_grid
    if config.command == "stats":
        return (config.n_max - 10, config.n_max)
    return (config.n_max,)


def _stats_one_sector(seq, perm, config: RunConfig):
    planes = G.coincidence_normals(seq)
    inward = [planes.oriented(i, j) for i, j in zip(perm, perm[1:])]
    sector = B.sector_from_inward_normals(inward, label=perm)
    geom = sector.geometry
    spacing = 4.0 * math.pi / geom.area
    study = _study(config, sector, config.tol_spacings * spacing)
    spectrum = study.final
    unfolded = ST.unfold(spectrum, geom)
    hist = ST.spacing_histogram(unfolded, bins=config.bins)
    return geom, study, spectrum, unfolded, hist


def _cmd_stats(config: RunConfig) -> dict:
    seq = M.MassSequence(config.masses)
    out_dir = config.output_path
    sectors = distinct_sector_orderings(seq)
    workers = _stats_workers()
    summary = {}
    discretization = {}

    def run(entry):
        perm, mult = entry
        return perm, mult, _stats_one_sector(seq, perm, config)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, sectors))
    else:
        results = [run(entry) for entry in sectors]

    reference = ST.reference_curves_to_csv()
    for perm, mult, (geom, study, spectrum, unfolded, hist) in results:
        tag = "".join(str(p) for p in perm)
        files = {
            "spectrum.csv": B.spectrum_to_csv(spectrum, study.last_deltas),
            "histogram.csv": ST.histogram_to_csv(hist),
            "reference.csv": reference,
            "weyl_residual.csv": _weyl_csv(spectrum, geom)[0],
            "summary.json": ST.summary_to_json(hist, unfolded) + "\n",
        }
        for name, text in files.items():
            _atomic_write(os.path.join(out_dir, f"sector_{tag}", name), text)
        summary[tag] = {
            "multiplicity": mult,
            "area": sig12(geom.area),
            "converged_levels": spectrum.converged_count,
            "ks_poisson": sig12(hist.ks_poisson),
            "ks_wigner": sig12(hist.ks_wigner),
        }
        discretization[tag] = _discretization(study)
    _atomic_write(
        os.path.join(out_dir, "sectors.json"), json.dumps(summary, indent=2) + "\n"
    )
    return {"n_sectors": len(sectors), "sectors": discretization}


_IMPLEMENTATIONS = {
    "classify": _cmd_classify,
    "family": _cmd_family,
    "geometry": _cmd_geometry,
    "group": _cmd_group,
    "exact": _cmd_exact,
    "billiard": _cmd_billiard,
    "stats": _cmd_stats,
    "weyl": _cmd_weyl,
}


# ---------------------------------------------------------------------------
# validation and dispatch


def _validate(config: RunConfig) -> None:
    cmd = config.command
    _require(cmd in _IMPLEMENTATIONS, f"unknown command {cmd!r}")
    if cmd in {"geometry", "billiard", "stats", "weyl", "classify"}:
        _require(config.masses is not None, f"{cmd} requires --masses")
    if config.masses is not None:
        try:
            M.MassSequence(config.masses)
        except MassDomainError as exc:
            raise SystemExit2(str(exc)) from exc
        if cmd != "classify":
            _require(len(config.masses) == 4, f"{cmd} supports exactly four masses")
    if cmd in {"geometry", "billiard", "weyl"}:
        _require(config.ordering is not None, f"{cmd} requires --ordering")
        _require(
            sorted(config.ordering) == [1, 2, 3, 4],
            "--ordering must be a permutation of 1,2,3,4",
        )
    if cmd in {"family", "exact"}:
        _require(config.spec is not None, f"{cmd} requires --spec")
    if cmd == "exact":
        _require(math.isfinite(config.e_max), "--e-max must be finite")
    if cmd == "group":
        _require(
            config.spec is not None or config.masses is not None,
            "group requires --spec or --masses",
        )
    if config.spec is not None and config.masses is None:
        try:
            spec = M.coxeter_spec(config.spec)
            if cmd == "exact":
                GR.spectrum_generators(spec)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        if cmd == "group" or config.ground_state_path:
            _require(spec.rank == 3, "group data and ground states need a rank-3 spec")
    if cmd == "family":
        _require(config.grid >= 1, "--grid must be at least 1")
        for flag, ratio in (("--r-min", config.r_min), ("--r-max", config.r_max)):
            _require(ratio is None or 0 < ratio < math.inf, f"{flag} must be positive and finite")
    if cmd in {"billiard", "weyl", "stats"}:
        grid = _truncations(config)
        _require(
            config.n_max_grid is None or len(grid) >= 2,
            "--n-max-grid needs at least two truncations",
        )
        _require(
            all(b > a for a, b in zip(grid, grid[1:])),
            "--n-max-grid must be strictly ascending",
        )
        # stats without --n-max-grid also solves at n_max - 10
        _require(grid[0] >= 2, f"every truncation must be at least 2, got {list(grid)}")
        basis = grid[0] * (grid[0] - 1) // 2
        _require(
            1 <= config.k_levels <= basis,
            f"--k must lie in 1..{basis}, the basis size at n_max {grid[0]}",
        )
        _require(
            config.quadrature_order is None or config.quadrature_order >= 3 * grid[-1],
            f"--quadrature-order must be at least 3 n_max = {3 * grid[-1]}",
        )
    if cmd == "stats":
        _require(config.bins >= 1, "--bins must be at least 1")
        _require(config.tol_spacings > 0, "--tol-spacings must be positive")
        _stats_workers()
    if cmd != "classify":
        _require(config.output_path is not None, f"{cmd} requires --output")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags over ``--config`` values over the ``RunConfig`` defaults."""
    file_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit2(f"cannot read --config {args.config}: {exc}") from exc
        _require(
            isinstance(document, dict) and isinstance(document.get(args.command, {}), dict),
            "--config must hold a JSON object, with one object per command",
        )
        file_values = dict(document.get(args.command, {}))
        file_values.update({k: v for k, v in document.items() if not isinstance(v, dict)})
        flags = _flags(args.command)
        bad = [k for k, v in file_values.items() if k in flags and not _fits(v, flags[k])]
        _require(not bad, f"--config value of the wrong type for {', '.join(bad)}")
    merged = {}
    for key, val in vars(args).items():
        val = file_values.get(key) if val is None else val
        if key != "config" and val is not None:
            merged[key] = tuple(val) if key in ("masses", "ordering", "n_max_grid") else val
    return RunConfig(**merged)


def dispatch(args: argparse.Namespace) -> int:
    """Load, validate, run, and write artifacts; returns the process exit code."""
    try:
        config = _merge_config(args)
        _validate(config)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        extra = _IMPLEMENTATIONS[config.command](config)
    except KaleidoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    if config.output_path:
        _write_metadata(config.output_path, config, wall, extra)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_masses(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mass list {text!r}") from exc


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _fits(val, flag: argparse.Action) -> bool:
    """Whether a --config value is null or what its flag parses its text to."""
    if val is None:
        return True
    text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
    try:
        parsed = (flag.type or str)(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return parsed == (tuple(val) if isinstance(val, list) else val)


def _flags(command: str) -> dict:
    """Destination -> argparse action of every flag of one subcommand."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices[command]._actions}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbilliards",
        description=(
            "Integrable mass families of trapped hard-core particles and "
            "spherical-triangle quantum billiards"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, masses=False, ordering=False, spec=False, solver=False, output=True):
        if masses:
            p.add_argument("--masses", type=_parse_masses, default=None,
                           help="comma-separated positive masses")
        if ordering:
            p.add_argument("--ordering", type=_parse_ints, default=None,
                           help="1-based particle ordering, e.g. 1,3,4,2")
        if spec:
            p.add_argument("--spec", default=None,
                           help="group name: A3, C3, H3, I2(7), ...")
        if solver:
            p.add_argument("--n-max", type=int, default=None,
                           help="basis truncation (default 40)")
            p.add_argument("--n-max-grid", type=_parse_ints, default=None,
                           help="ascending truncations for convergence deltas")
            p.add_argument("--quadrature-order", type=int, default=None,
                           help="Gauss-Legendre order per direction (default 3*n_max)")
            p.add_argument("--k", dest="k_levels", type=int, default=None,
                           help="number of levels to report (default 50)")
        if output:
            p.add_argument("--output", dest="output_path", default=None,
                           help="output file (or directory for stats)")
        p.add_argument("--config", default=None, help="JSON config file")

    p = sub.add_parser("classify", help="score an ordered mass sequence")
    common(p, masses=True, output=True)

    p = sub.add_parser("family", help="one-parameter integrable mass family CSV")
    common(p, spec=True)
    p.add_argument("--grid", type=int, default=None, help="number of ratio grid points")
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)

    p = sub.add_parser("geometry", help="sector geometry JSON")
    common(p, masses=True, ordering=True)

    p = sub.add_parser("group", help="reflection group data JSON")
    common(p, masses=True, spec=True)

    p = sub.add_parser("exact", help="algebraic energy ladder CSV")
    common(p, spec=True)
    p.add_argument("--e-max", type=float, default=None, help="energy cutoff")
    p.add_argument("--ground-state", dest="ground_state_path", default=None,
                   help="also write the ground-state polynomial JSON here")

    p = sub.add_parser("billiard", help="numerical sector spectrum CSV")
    common(p, masses=True, ordering=True, solver=True)

    p = sub.add_parser("weyl", help="staircase vs Weyl-law residual CSV")
    common(p, masses=True, ordering=True, solver=True)

    p = sub.add_parser("stats", help="per-sector level statistics (six-sector pipeline)")
    common(p, masses=True, solver=True)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--tol-spacings", type=float, default=None,
                   help="converged-window tolerance in mean spacings (default 0.05)")

    return parser


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
