"""Benchmark entry point: measure one workload, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pagerank-miss --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (and writes spans and a per-layer table under
``.perfbench-out/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every repetition matched the scalar oracle and the
workload kept its character.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.harness import END_TO_END, PER_LAYER, MODEL_NOTE, \
        measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = measure(workload, args.seed, args.seconds,
                          bool(args.trace), workdir, OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {workload.name} seed={args.seed} reps={outcome.attempted} "
          f"failed={outcome.failed}")
    for name, unit in units.items():
        print(f"{name:32s} {outcome.metrics.get(name, float('nan')):>16.6g}"
              f" {unit}")
    if not args.trace:
        print(f"# {MODEL_NOTE}")
    for problem in outcome.problems:
        print(f"FAIL: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in outcome.metrics},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
