"""Which per-layer counts repeat exactly across fresh processes?

    python3 perfbench/determinism.py [--seed 1] [--workload NAME ...]

Runs the traced measurement of each workload twice with the same
benchmark seed, once with ``PYTHONHASHSEED=1`` and once with
``PYTHONHASHSEED=2`` in every child and server, and prints for every count
whether the two runs agree.  Only counts printed as ``exact`` may back a
count claim; README.md lists the result.  Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import sys

import run


def traced_counts(workload: str, seed: int, hash_seed: int) -> dict:
    ctx = run.Context(run.locate_checkout(), seed, seconds=0)
    ctx.env["PYTHONHASHSEED"] = str(hash_seed)
    if workload == "serve-edits":
        metrics = run.serve_workload(ctx, trace=True)
    else:
        metrics = run.cold_workload(ctx, workload, trace=True)
    if ctx.failed:
        raise run.BenchError(f"{workload}: {ctx.failed} checks failed")
    return {name: value for name, value in metrics.items()
            if run.layer_unit(name) == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    try:
        for workload in args.workload or run.WORKLOADS:
            first = traced_counts(workload, args.seed, 1)
            second = traced_counts(workload, args.seed, 2)
            for name, value in first.items():
                verdict = ("exact" if value == second[name]
                           else f"varies ({value} vs {second[name]})")
                print(f"{workload:13s} {name:32s} {verdict}")
    except run.BenchError as exc:
        print(f"determinism check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
