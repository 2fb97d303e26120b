"""tetrabox benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli-build --seed 1 --seconds 10 --trace 0

Runs against the source tree (``src/``); nothing needs installing. With
``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (see BENCHMARK.json and
bench/README.md). The line before it holds the run's details: machine,
parameter pool, sample counts, per-item medians and output digests.
Exits 2 without a result when tetrabox cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-build", "cli-verify", "lib-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tetrabox" / "__init__.py").is_file():
        print(f"error: no tetrabox source tree at {src}", file=sys.stderr)
        return 2
    # Children inherit the affinity, so the reference probes and the program
    # they scale run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import tetrabox  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import tetrabox from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        report = workloads.measure(workload, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report["info"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
