"""Self-check of the benchmark at tiny size (``python3 bench/run.py --self-check``).

Runs every workload path with --trace 0 and --trace 1 at tiny size and
asserts that every metric named in BENCHMARK.json is printed with its unit,
that the report lines name all seven end-to-end quantities, that the
checks pass, and that a corrupted oracle makes them fail.  Finally it runs
the command in a directory holding only BENCHMARK.json and the benchmark,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORTED = ("setup_s", "run_s", "results_per_s", "peak_rss_mb", "fail_ratio",
            "lambda_err_max", "antisym_err_max")


def invoke(root: Path, *args: str) -> tuple:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--seconds", "0", *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, lines, proc.stderr


def expect(condition: bool, message: str, failures: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def self_check() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures: list = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, lines, stderr = invoke(ROOT, "--workload", workload, "--seed", "1",
                                         "--trace", str(trace), "--size", "tiny")
            label = f"{workload} --trace {trace}"
            expect(code == 0, f"{label} exits 0 {stderr.strip()[-300:]}", failures)
            if code != 0:
                continue
            doc = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(units == wanted[trace], f"{label} prints every metric with its unit",
                   failures)
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0,
                   f"{label} passes its checks ({doc['failed']}/{doc['attempted']} failed)",
                   failures)
            printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
            expect(set(REPORTED) <= printed, f"{label} reports {', '.join(REPORTED)}",
                   failures)
        code, lines, _ = invoke(ROOT, "--workload", workload, "--seed", "1",
                                "--size", "tiny", "--corrupt-oracle")
        doc = json.loads(lines[-1]) if code == 0 else {}
        expect(code == 0 and doc["failed"] > 0 and not doc["correct"],
               f"{workload} with a corrupted oracle fails {doc.get('failed')} checks", failures)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = invoke(bare, "--workload", "stats_h3", "--seed", "1")
        expect(code != 0 and not lines[-1].startswith("{"),
               "without the package the command fails and prints no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0
