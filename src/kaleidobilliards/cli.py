"""Command-line entry point wiring the library into reproducible runs.

Every command validates its inputs and the paths it will write up front
(exit 2), then runs the corresponding module pipeline (numerical failures
and running out of memory exit 3) and returns its files as text.  ``main``
writes every file, each atomically, and a run-metadata JSON (inputs,
package/library versions, wall time) last; a failed run writes none.  Data
files carry no timestamps, so identical configs reproduce byte-identical CSV
bodies.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import sys
import tempfile
import time

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

# ---------------------------------------------------------------------------
# helpers


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp opens 0600; give the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _blas() -> dict:
    """The BLAS that scipy's solves ran on, numpy's own, and the threads they could use.

    numpy's wheels may bundle a second OpenBLAS, with its own thread pool;
    numpy below 1.25 has no ``mode="dicts"``, and its BLAS is recorded as null.
    """
    build = __import__("scipy").show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        numpy_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        numpy_build = {}
    return {
        "name": build.get("name"),
        "version": build.get("version"),
        "numpy_name": numpy_build.get("name"),
        "numpy_version": numpy_build.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }


def _metadata(config: argparse.Namespace, wall: float, extra: dict) -> str:
    meta = {
        "command": config.command,
        "inputs": {k: v for k, v in vars(config).items() if k != "command"},
        "versions": {
            "kaleidobilliards": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "blas": _blas(),
        "wall_time_s": round(wall, 3),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    meta.update(extra)
    return json.dumps(meta, indent=2) + "\n"


# the files of one stats sector class, in the order _cmd_stats makes their texts
_SECTOR_FILES = ("spectrum.csv", "histogram.csv", "reference.csv", "weyl_residual.csv",
                 "summary.json")


def _sector_files(out_dir: str, perm) -> list:
    """The stats output files of one sector class."""
    sub = os.path.join(out_dir, "sector_" + "".join(str(p) for p in perm))
    return [os.path.join(sub, name) for name in _SECTOR_FILES]


def _outputs(config: argparse.Namespace, sectors) -> list:
    """Every path the run writes, in order: the data files, then the metadata
    file; none without --output.  ``sectors`` are the stats sector classes."""
    out = config.output_path
    if not out:
        return []
    if config.command == "stats":
        data = [path for perm, _ in sectors for path in _sector_files(out, perm)]
        return data + [os.path.join(out, "sectors.json"), os.path.join(out, "run_metadata.json")]
    ground_state = vars(config).get("ground_state_path")
    return [out, *([ground_state] if ground_state else []), out + ".meta.json"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Validation failure; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# command implementations: each returns ({path: text}, metadata extras), its
# paths exactly the data files _outputs declares


def _cmd_classify(config: argparse.Namespace) -> tuple:
    seq = M.MassSequence(config.masses)
    result = M.classify(seq)
    verdict = "integrable" if result.integrable else "not integrable"
    print(f"{result.best.name} bracket {list(result.best.bracket)} "
          f"max deviation {result.max_deviation:.6e} rad ({verdict} in this order)")
    if not config.output_path:
        return {}, {}
    payload = {
        "masses": list(seq.masses),
        "best": result.best.name,
        "bracket": list(result.best.bracket),
        "reversed_bracket": result.reversed_bracket,
        "measured_angles": [sig12(a) for a in result.measured_angles],
        "target_angles": [sig12(a) for a in result.target_angles],
        "max_deviation": sig12(result.max_deviation),
        "integrable": result.integrable,
    }
    return {config.output_path: json.dumps(payload, indent=2) + "\n"}, {}


def _cmd_family(config: argparse.Namespace) -> tuple:
    spec = M.coxeter_spec(config.spec)
    lo, hi = M.feasibility_interval(spec)
    r_min = config.r_min if config.r_min is not None else hi * 1e-3
    r_max = config.r_max if config.r_max is not None else hi * (1.0 - 1e-6)
    ratios = np.linspace(r_min, r_max, config.grid)
    curve = M.family_curve(spec, ratios)
    return {config.output_path: M.write_family_csv(curve)}, {
        "feasible_interval": [sig12(lo), sig12(hi)],
        "ratio_range": [r_min, r_max],
        "n_points": len(curve.points),
        "infeasible_points": [[r, reason] for r, reason in curve.infeasible],
    }


def _cmd_geometry(config: argparse.Namespace) -> tuple:
    seq = M.MassSequence(config.masses)
    geom = G.sector_geometry(G.coincidence_normals(seq), config.ordering)
    return {config.output_path: G.geometry_to_json(geom)}, {}


def _spec_member(spec: M.CoxeterSpec) -> M.MassSequence:
    """The family member that stands for a spec: ratio half its r_max."""
    _, hi = M.feasibility_interval(spec)
    return M.generate_family(spec, 1.0, 0.5 * hi)


def _cmd_group(config: argparse.Namespace) -> tuple:
    seq = (M.MassSequence(config.masses) if config.masses
           else _spec_member(M.coxeter_spec(config.spec)))
    grp = GR.group_from_masses(seq)
    return {config.output_path: GR.group_to_json(grp)}, {}


def _cmd_exact(config: argparse.Namespace) -> tuple:
    spec = M.coxeter_spec(config.spec)
    levels = E.energy_levels(spec, config.e_max)
    files = {config.output_path: E.levels_to_csv(levels)}
    # the multiplicity of every lambda up to the largest one in the CSV
    top = max((lv.lam for lv in levels), default=-1)
    extra = {
        "n_levels": len(levels),
        "lambda_spectrum": {str(k): v for k, v in GR.lambda_spectrum(spec, top).items()},
    }
    if config.ground_state_path:
        state = E.ground_state(GR.group_from_masses(_spec_member(spec)))
        files[config.ground_state_path] = state.polynomial.to_json()
        extra["ground_state_degree"] = state.polynomial.degree
    return files, extra


def _discretization(study: B.ConvergenceStudy) -> dict:
    """The top truncation's basis size and quadrature order, the window's rule
    and size, and per truncation the size and eigensolver path of every
    parity block."""
    return {
        "basis_size": B.basis_size(study.n_max_grid[-1]),
        "quadrature_order": study.quadrature_order,
        "tol_spacings": study.tol_spacings,
        "converged_levels": study.converged_count,
        "parity_blocks": [
            {"n_max": n_max, "blocks": [
                {"size": solve.size, "path": solve.path, "krylov_steps": solve.krylov_steps}
                for solve in solves
            ]}
            for n_max, solves in zip(study.n_max_grid, study.solves)
        ],
    }


def _study_one_sector(config: argparse.Namespace) -> tuple:
    """The chart of the --ordering sector and its convergence study."""
    sector = B.flatten_sector(M.MassSequence(config.masses), config.ordering)
    return sector, B.convergence_study(sector, config.n_max, config.k_levels)


def _cmd_billiard(config: argparse.Namespace) -> tuple:
    sector, study = _study_one_sector(config)
    return {config.output_path: B.spectrum_to_csv(study)}, {
        "area": sig12(sector.geometry.area),
        "perimeter": sig12(sector.geometry.perimeter),
        "n_levels": len(study.values),
        "first_lambda_eff": sig12(study.effective_lambda[0]),
        **_discretization(study),
    }


def _cmd_weyl(config: argparse.Namespace) -> tuple:
    sector, study = _study_one_sector(config)
    if study.converged_count == 0:
        raise InsufficientLevelsError("no level converged across --n-max")
    text = ST.weyl_residuals_to_csv(study.window, sector.geometry)
    after = ST.weyl_residuals(study.window, sector.geometry)[3]  # the residual column
    return {config.output_path: text}, {
        "max_abs_residual": sig12(np.abs(after).max()),
        **_discretization(study),
    }


def _stats_one_sector(seq, perm, config: argparse.Namespace):
    geom = G.sector_geometry(G.coincidence_normals(seq), perm)
    study = B.convergence_study(B.flatten_geometry(geom), config.n_max, config.k_levels,
                                config.tol_spacings)
    unfolded = ST.unfold(study.window, geom)
    hist = ST.spacing_histogram(unfolded, bins=config.bins)
    return geom, study, unfolded, hist


def _cmd_stats(config: argparse.Namespace, sectors: list) -> tuple:
    seq = M.MassSequence(config.masses)
    files, summary, discretization = {}, {}, {}
    reference = ST.reference_curves_to_csv()
    for perm, mult in sectors:
        geom, study, unfolded, hist = _stats_one_sector(seq, perm, config)
        texts = (B.spectrum_to_csv(study), ST.histogram_to_csv(hist), reference,
                 ST.weyl_residuals_to_csv(study.window, geom), ST.summary_to_json(hist, unfolded))
        files.update(zip(_sector_files(config.output_path, perm), texts))
        tag = "".join(str(p) for p in perm)
        summary[tag] = {
            "multiplicity": mult,
            "area": sig12(geom.area),
            "converged_levels": study.converged_count,
            "ks_poisson": sig12(hist.ks_poisson),
            "ks_wigner": sig12(hist.ks_wigner),
        }
        discretization[tag] = _discretization(study)
    files[os.path.join(config.output_path, "sectors.json")] = json.dumps(summary, indent=2) + "\n"
    return files, {"n_sectors": len(sectors), "sectors": discretization}


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
# validation and entry point

# flags without a default that a command needs whenever it defines them;
# classify may just print, and group takes --spec or --masses
_NEEDED = {"masses": "--masses", "ordering": "--ordering", "spec": "--spec",
           "output_path": "--output"}
_OPTIONAL = {("classify", "output_path"), ("group", "masses"), ("group", "spec")}


def _check_output(path: str) -> None:
    """Refuse a path that cannot become an output file."""
    _require(not os.path.isdir(path), f"output {path} exists and is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    _require(os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK),
             f"output {path}: {parent} is not a writable directory")


def _validate(config: argparse.Namespace) -> tuple:
    """Refuse bad inputs; returns the stats sector classes and the declared outputs."""
    cmd, given = config.command, vars(config)
    for dest, flag in _NEEDED.items():
        if dest in given and (cmd, dest) not in _OPTIONAL:
            _require(given[dest] is not None, f"{cmd} requires {flag}")
    if cmd == "group":
        _require(
            config.spec is not None or config.masses is not None,
            "group requires --spec or --masses",
        )
    for dest, flag in (("output_path", "--output"), ("ground_state_path", "--ground-state")):
        _require(given.get(dest) != "", f"{flag} must name a path")
    masses = given.get("masses")
    if masses is not None:
        try:
            M.MassSequence(masses)
        except MassDomainError as exc:
            raise SystemExit2(str(exc)) from exc
        if cmd != "classify":
            _require(len(masses) == 4, f"{cmd} supports exactly four masses")
    if given.get("ordering") is not None:
        _require(
            sorted(config.ordering) == [1, 2, 3, 4],
            "--ordering must be a permutation of 1,2,3,4",
        )
    if "e_max" in given:
        _require(math.isfinite(config.e_max), "--e-max must be finite")
    if given.get("spec") is not None:
        try:
            spec = M.coxeter_spec(config.spec)
            if cmd == "exact":
                GR.spectrum_generators(spec)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        # group reads --masses before --spec
        if masses is None and (cmd == "group" or given.get("ground_state_path")):
            _require(spec.rank == 3, "group data and ground states need a rank-3 spec")
    if "grid" in given:
        _require(config.grid >= 1, "--grid must be at least 1")
        for flag, ratio in (("--r-min", config.r_min), ("--r-max", config.r_max)):
            _require(ratio is None or 0 < ratio < math.inf, f"{flag} must be positive and finite")
    if "n_max" in given:
        grid = config.n_max
        # the converged window of stats and weyl is the drift between their
        # last two truncations
        _require(cmd not in ("stats", "weyl") or len(grid) >= 2,
                 f"{cmd} needs at least two truncations")
        _require(
            all(b > a for a, b in zip(grid, grid[1:])),
            "--n-max must be strictly ascending",
        )
        try:
            basis = B.basis_size(grid[0])
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        _require(
            1 <= config.k_levels <= basis,
            f"--k must lie in 1..{basis}, the basis size at n_max {grid[0]}",
        )
    if "bins" in given:
        _require(config.bins >= 1, "--bins must be at least 1")
        _require(0 < config.tol_spacings < math.inf, "--tol-spacings must be positive and finite")
    sectors = G.distinct_sector_orderings(M.MassSequence(masses)) if cmd == "stats" else None
    paths = _outputs(config, sectors)
    for path in paths:
        _check_output(path)
    # no file takes two outputs, and none lies where another needs a directory
    for a, b in itertools.combinations(map(os.path.realpath, paths), 2):
        shared = os.path.commonpath([a, b])
        _require(shared not in (a, b), f"two outputs need the path {shared}")
    return sectors, paths


def _parse(argv) -> argparse.Namespace:
    """Flags over ``--config`` values over the flags' defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit2(f"cannot read --config {args.config}: {exc}") from exc
    _require(
        isinstance(document, dict) and isinstance(document.get(args.command, {}), dict),
        "--config must hold a JSON object, with one object per command",
    )
    own = document.get(args.command, {})
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(own) - set(flags))
    _require(not unknown, f"--config {args.command} has unknown keys: {', '.join(unknown)}")
    # top-level scalars are shared, so each command takes the ones it defines
    file_values = {k: v for k, v in document.items() if k in flags and not isinstance(v, dict)}
    file_values.update(own)
    values = {k: _config_value(v, flags[k]) for k, v in file_values.items() if v is not None}
    bad = [k for k, v in values.items() if v is None]
    _require(not bad, f"--config value of the wrong type for {', '.join(bad)}")
    sub.set_defaults(**values)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Parse, validate, run, then write the declared outputs; returns the exit code."""
    try:
        config = _parse(argv)
        sectors, paths = _validate(config)
    except _ParserExit as exc:
        return exc.args[0]
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    command = _IMPLEMENTATIONS[config.command]
    try:
        files, extra = command(config, sectors) if sectors is not None else command(config)
    except (KaleidoError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 3
    if set(files) != set(paths[:-1]):
        raise RuntimeError(f"{config.command} returned {sorted(files)}, not {paths[:-1]}")
    for path in paths[:-1]:
        _atomic_write(path, files[path])
    if paths:
        _atomic_write(paths[-1], _metadata(config, time.perf_counter() - start, extra))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _ParserExit(Exception):
    """argparse ended the run itself (--help, --version); holds the status."""


class _Parser(argparse.ArgumentParser):
    """Sends argparse's own errors down the one exit-2 path of ``main``, and
    its own exits back to ``main`` as a returned status."""

    def error(self, message):
        raise SystemExit2(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)


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


def _config_value(val, flag: argparse.Action):
    """What a --config value sets: its flag's parse of the value's text when
    that equals the value, else None.  A scalar for a list flag is one entry."""
    items = val if isinstance(val, list) else [val]
    try:
        parsed = (flag.type or str)(",".join(map(str, items)))
    except (ValueError, argparse.ArgumentTypeError):
        return None
    expected = tuple(items) if isinstance(parsed, tuple) else val
    return parsed if parsed == expected else None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kbilliards",
        description=(
            "Integrable mass families of trapped hard-core particles and "
            "spherical-triangle quantum billiards"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, masses=False, ordering=False, spec=False, solver=None):
        if masses:
            p.add_argument("--masses", type=_parse_masses,
                           help="comma-separated positive masses")
        if ordering:
            p.add_argument("--ordering", type=_parse_ints,
                           help="1-based particle ordering, e.g. 1,3,4,2")
        if spec:
            p.add_argument("--spec", help="group name: A3, C3, H3, I2(7), ...")
        if solver:
            # a string default goes through _parse_ints like the flag's text
            p.add_argument("--n-max", "--n-max-grid", dest="n_max", type=_parse_ints,
                           default=solver,
                           help="ascending basis truncations; levels converge "
                                "across them (default %(default)s)")
            p.add_argument("--k", dest="k_levels", type=int, default=50,
                           help="number of levels to report (default %(default)s)")
        p.add_argument("--output", dest="output_path",
                       help="output file (or directory for stats)")
        p.add_argument("--config", help="JSON config file")

    p = sub.add_parser("classify", help="score an ordered mass sequence")
    common(p, masses=True)

    p = sub.add_parser("family", help="one-parameter integrable mass family CSV")
    common(p, spec=True)
    p.add_argument("--grid", type=int, default=100,
                   help="number of ratio grid points (default %(default)s)")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)

    p = sub.add_parser("geometry", help="sector geometry JSON")
    common(p, masses=True, ordering=True)

    p = sub.add_parser("group", help="reflection group data JSON")
    common(p, masses=True, spec=True)

    p = sub.add_parser("exact", help="algebraic energy ladder CSV")
    common(p, spec=True)
    p.add_argument("--e-max", type=float, default=25.0,
                   help="energy cutoff (default %(default)s)")
    p.add_argument("--ground-state", dest="ground_state_path",
                   help="also write the ground-state polynomial JSON here")

    p = sub.add_parser("billiard", help="numerical sector spectrum CSV")
    common(p, masses=True, ordering=True, solver="40")

    p = sub.add_parser("weyl", help="staircase vs Weyl-law residual CSV")
    common(p, masses=True, ordering=True, solver="30,40")

    p = sub.add_parser("stats", help="per-sector level statistics (six-sector pipeline)")
    common(p, masses=True, solver="30,40")
    p.add_argument("--bins", type=int, default=ST._BINS,
                   help="spacing histogram bins (default %(default)s)")
    p.add_argument("--tol-spacings", type=float, default=B._TOL_SPACINGS,
                   help="converged-window tolerance in mean spacings (default %(default)s)")

    return parser


if __name__ == "__main__":
    sys.exit(main())
