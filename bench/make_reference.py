"""Regenerate reference/stats_h3.json, the stats_h3 oracle for non-Coxeter sectors.

    python3 bench/make_reference.py

Runs the stats_h3 pipeline once per size (full and tiny) and stores the
top-truncation eigenvalues of every sector except the Coxeter one, which
the exact character ladder checks instead.  Regenerate only when a change
is meant to move these spectra, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from kaleidobilliards import cli  # noqa: E402
from kaleidobilliards import masses as M  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    masses = M.symmetric_member(M.coxeter_spec("H3"))
    coxeter = "".join(str(i) for i in workloads.COXETER_ORDERING)
    document = {}
    scratch = HERE.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for size_name, size in workloads.SIZES["stats_h3"].items():
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            code = cli.main(workloads.StatsH3.argv(masses, size, out))
            if code != 0:
                raise SystemExit(f"stats exited {code} at size {size_name}")
            sectors = workloads.StatsH3.read(out)
        document[size_name] = {
            tag: entry["eigenvalues"] for tag, entry in sorted(sectors.items()) if tag != coxeter
        }
    if not any(scratch.iterdir()):
        scratch.rmdir()
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
