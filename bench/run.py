"""Repository benchmark: three workloads, timed end to end and per module.

    python3 bench/run.py --workload stats_h3 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-check

Every pass runs in a fresh child process (``child.py``) with the default
BLAS threading and ``KBILLIARDS_THREADS`` unset, so import caches and
``lru_cache`` tables never carry over between passes.  With ``--trace 0``
the command runs set-up-only children and then passes until ``--seconds``
have elapsed, and reports the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass (plus the single-threaded and
two-sector-thread baselines) and reports the per-layer metrics.  Every pass
is checked against its oracle; the last stdout line is the JSON result.
Reports and spans go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("stats_h3", "oracle_solves", "exact_sweep")
BILLIARD_WORKLOADS = ("stats_h3", "oracle_solves")
SETUP_CHILDREN = 3  # set-up-only children per --trace 0 run, besides the passes
RUN_BUDGET_S = 170.0  # a run must end within 180 s
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oracle_err_digits": "digits",
    "fail_ratio": "ratio",
    "lambda_err_max": "lambda",
    "antisym_err_max": "relative",
}


class ChildFailed(RuntimeError):
    pass


def run_name(args) -> str:
    tiny = "" if args.size == "full" else f"-{args.size}"
    return f"{args.workload}-seed{args.seed}{tiny}"


def run_child(spec: dict, env_overrides: dict, deadline: float) -> dict:
    """Spawn one child, wait for it, return its result document."""
    tag = f"{spec['mode']}-{spec['index']}"
    spec = dict(spec, result=str(Path(spec["workdir"]) / f"{tag}.result.json"))
    spec_path = Path(spec["workdir"]) / f"{tag}.spec.json"
    env = {k: v for k, v in os.environ.items() if k != "KBILLIARDS_THREADS"}
    env["TMPDIR"] = spec["workdir"]  # the program's temporary files stay in the checkout
    env.update(env_overrides)
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{tag} exceeded the run budget")
    except BaseException:  # interrupted or terminated: never leave the child behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{tag} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def worst(values):
    values = [v for v in values if v is not None]
    return max(values) if values else None


def digits(err) -> float:
    """Decimal digits of agreement with the oracle: -log10 of the worst error.

    A run in which no operation produced a checkable result scores 0.
    """
    return 0.0 if err is None else -math.log10(max(err, 1e-300))


def summarize_passes(passes: list, setups: list) -> dict:
    """End-to-end metrics from the pass and set-up children of one run."""
    lam = worst(p["lambda_err"] for p in passes)
    anti = worst(p["antisym_err"] for p in passes)
    return {
        "setup_s": statistics.median([s["setup_s"] for s in setups + passes]),
        "run_s": statistics.median([p["run_s"] for p in passes]),
        "results_per_s": statistics.median([p["results"] / p["run_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "oracle_err_digits": digits(worst([lam, anti])),
        "lambda_err_max": lam,
        "antisym_err_max": anti,
    }


def measure(args, base: dict, deadline: float) -> tuple:
    """--trace 0: set-up children, then passes until --seconds have elapsed."""
    setups = [run_child(dict(base, mode="setup", index=i), {}, deadline)
              for i in range(SETUP_CHILDREN)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        if passes and time.monotonic() + passes[-1]["run_s"] * 1.5 > deadline:
            break
        passes.append(run_child(dict(base, mode="pass", index=len(passes)), {}, deadline))
    return passes, setups


def trace(args, base: dict, deadline: float) -> tuple:
    """--trace 1: untraced and traced passes plus the thread baselines."""
    plain = run_child(dict(base, mode="pass", index=0), {}, deadline)
    traced_base = dict(base, traced=True)

    def traced(label, env):
        spans = OUT_DIR / f"{run_name(args)}-{label}.spans.json"
        spec = dict(traced_base, mode="pass", index=label, spans=str(spans))
        return run_child(spec, env, deadline)

    main = traced("traced", {})
    layers = dict(main["layers"])
    layers["trace.overhead_s"] = main["run_s"] - plain["run_s"]
    extra = []
    layers["billiard.assemble_st_s"] = layers["billiard.solve_spectrum_st_s"] = 0.0
    if args.workload in BILLIARD_WORKLOADS:
        single = traced("blas1", {"OPENBLAS_NUM_THREADS": "1"})
        layers["billiard.assemble_st_s"] = single["layers"]["billiard.assemble_s"]
        layers["billiard.solve_spectrum_st_s"] = single["layers"]["billiard.solve_spectrum_s"]
        extra.append(single)
    layers["cli.sector_threads2_s"] = 0.0
    if args.workload == "stats_h3":
        threads2 = traced("threads2", {"KBILLIARDS_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"})
        layers["cli.sector_threads2_s"] = threads2["layers"]["cli.main_s"]
        extra.append(threads2)
    layers["cli.bytes_written"] = main.get("bytes_written", 0)
    return [plain, main] + extra, layers


def declared(kind: str) -> list:
    """(name, unit) of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def report(args, passes: list, setups: list, metrics: dict, layers: dict | None) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    canaries = all(p["canary_flagged"] for p in passes)
    env = passes[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pass children {len(passes)}  set-up-only children {len(setups)}")
    for family, masses in passes[0]["inputs"]["masses"].items():
        print(f"  masses {family}: " + ", ".join(f"{m:.12g}" for m in masses))
    blas = "; ".join(f"{b['library']} threads={b.get('threads')} ({b.get('config', '?')})"
                     for b in env["openblas"])
    print(f"  env: nproc {env['nproc']}, numpy {env['numpy']} ({env['numpy_blas']}), "
          f"scipy {env['scipy']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}")
    print(f"  blas: {blas}")
    shown = dict(metrics, fail_ratio=failed / attempted if attempted else 1.0)
    for name, value in shown.items():
        text = "n/a (no such oracle on this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {text} {UNITS[name] if value is not None else ''}")
    print(f"  failed {failed} of {attempted} checked operations; "
          f"perturbed results flagged: {canaries}")
    for label, value in passes[0]["detail"].items():
        print(f"  check {label}: {value:.3g}")
    for p in passes:
        for message in p["messages"]:
            print(f"  FAIL {message}")
    if layers is not None:
        for name, unit in declared("per_layer"):
            print(f"  {name:<36} {layers[name]:.6g} {unit}")
    return {"attempted": attempted, "failed": failed, "canaries": canaries}


def run(args) -> int:
    if not (ROOT / "src" / "kaleidobilliards" / "__init__.py").is_file():
        print(f"error: no kaleidobilliards package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
            "size": args.size, "corrupt": args.corrupt_oracle, "traced": False,
            "workdir": str(workdir)}
    try:
        if args.trace:
            passes, layers = trace(args, base, deadline)
            setups = []
        else:
            passes, setups = measure(args, base, deadline)
            layers = None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    metrics = summarize_passes(passes if not args.trace else passes[:1], setups)
    counts = report(args, passes, setups, metrics, layers)
    values = layers if args.trace else metrics
    kind = "per_layer" if args.trace else "end_to_end"
    chosen = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}
    correct = counts["failed"] == 0 and counts["canaries"]
    document = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "passes": passes, "setups": setups, "metrics": chosen, "correct": correct}
    (OUT_DIR / f"{run_name(args)}-trace{args.trace}.report.json").write_text(
        json.dumps(document, indent=1))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": chosen}))
    return 0


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload path at tiny size and verify the output")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_check:
        from selfcheck import self_check

        return self_check()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
