"""One benchmark process: set up a workload, optionally run and check one pass.

Run by ``run.py`` as ``python3 bench/child.py <spec.json>``; the spec names
the workload, seed, size and mode, and where to write the result.  Set-up
time runs from the parent's spawn timestamp (``time.monotonic`` is
system-wide on Linux) to the moment the workload's inputs are ready, so it
covers interpreter start, imports, mass families and sector flattening.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path


def blas_info() -> dict:
    """BLAS vendor, version and thread count of every OpenBLAS in the process."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "KBILLIARDS_THREADS": os.environ.get("KBILLIARDS_THREADS"),
        "openblas": [],
    }
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = threads()
                entry["config"] = config().decode()
                break
        info["openblas"].append(entry)
    return info


def layer_metrics(tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed like BENCHMARK.json."""
    times = tracer.layer_times()
    samples = tracer.samples

    def total(name):
        return times.get(name, {}).get("total", 0.0)

    def own(name):
        return times.get(name, {}).get("self", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def biggest(key):
        return max(samples.get(key, [0]))

    def ratio(num, den):
        n, d = sum(samples.get(num, [])), sum(samples.get(den, []))
        return n / d if d else 0.0

    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "masses.family_s": total("masses.family"),
        "geometry.sector_geometry_s": total("geometry.sector_geometry"),
        "billiard.flatten_s": total("billiard.flatten"),
        "billiard.assemble_s": total("billiard.assemble"),
        "billiard.assemble_calls": calls("billiard.assemble"),
        "billiard.solve_spectrum_s": total("billiard.solve_spectrum"),
        "billiard.solve_spectrum_calls": calls("billiard.solve_spectrum"),
        "billiard.rss_after_assemble_mb": biggest("assemble.rss_mb"),
        "billiard.assemble_peak_rss_mb": biggest("assemble.peak_rss_mb"),
        "billiard.basis_size_max": biggest("assemble.basis_size"),
        "billiard.quad_order_max": biggest("assemble.quad_order"),
        "billiard.convergence_study_self_s": own("billiard.convergence_study"),
        "billiard.converged_ratio": ratio("convergence.converged", "convergence.k"),
        "stats.unfold_s": total("stats.unfold"),
        "stats.spacing_histogram_s": total("stats.spacing_histogram"),
        "stats.weyl_residuals_s": total("stats.weyl_residuals"),
        "groups.generate_group_s": total("groups.generate_group"),
        "groups.conjugacy_classes_s": total("groups.conjugacy_classes"),
        "groups.degeneracy_s": total("groups.degeneracy"),
        "exact.projection_tables_s": total("exact.projection_tables"),
        "exact.projection_tables_calls": calls("exact.projection_tables"),
        "polynomials.monomial_images_s": total("polynomials.monomial_images"),
        "exact.excited_basis_self_s": own("exact.excited_basis"),
        "polynomials.gram_inner_s": total("polynomials.gram_inner"),
        "polynomials.gram_inner_calls": calls("polynomials.gram_inner"),
        "exact.candidates": sum(samples.get("excited.candidates", [])),
        "exact.states": sum(samples.get("excited.states", [])),
        "exact.accept_ratio": ratio("excited.states", "excited.candidates"),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import kaleidobilliards

    package = Path(kaleidobilliards.__file__).resolve()
    if root / "src" not in package.parents:
        raise SystemExit(f"imported {package}, not the package under {root / 'src'}")

    import workloads
    from tracing import Tracer

    tracer = Tracer() if spec["traced"] else None
    if tracer:
        tracer.install()
    work = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["size"], spec["corrupt"])
    result = {"setup_s": time.monotonic() - spec["spawned"], "inputs": work.describe()}

    if spec["mode"] == "pass":
        start = time.perf_counter()
        raw = work.run(spec["workdir"])
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer)
            spans = [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in tracer.finished_spans()
            ]
            Path(spec["spans"]).write_text(json.dumps(spans))
        start = time.perf_counter()
        outcome = work.check(raw)
        result.update(
            attempted=outcome.attempted,
            failed=outcome.failed,
            results=outcome.results,
            lambda_err=outcome.lambda_err,
            antisym_err=outcome.antisym_err,
            messages=outcome.messages[:20],
            detail=outcome.detail,
            canary_flagged=work.canary(raw),
            check_s=time.perf_counter() - start,
        )
        if hasattr(work, "bytes_written"):
            result["bytes_written"] = work.bytes_written(raw)
        result["env"] = blas_info()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
