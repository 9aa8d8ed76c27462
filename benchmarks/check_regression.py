#!/usr/bin/env python
"""Fail CI when a bench report regresses against the checked-in baseline.

Usage::

    python -m repro bench                       # writes bench-report.json
    python benchmarks/check_regression.py bench-report.json benchmarks/baseline.json

The report holds one row per measured step, ``{bench, name, counters,
seconds, digest, ok}``; the baseline maps ``{bench: {row: {metric: rule}}}``
where a rule is ``{"eq": v}``, ``{"min": v}``, ``{"max": v}`` (strictly
below) or ``{"base": v}`` (a recorded value: counters may grow to
``max(v * 1.25, v + 5)``, ``seconds``/``*_ms`` to ``v * 4``, throughputs
``*_cps`` may drop to ``v / 4``).  The gate fails when a baselined row is
missing, any row is not ``ok``, the rows of one input disagree on their
verdict digest, or a rule is broken; each failure names bench, row and
metric.  The logic lives in :func:`repro.bench.gate`.

To refresh the baseline after an intentional change, run the bench locally
and copy the new numbers into the ``base`` rules (see README "Benchmark
tracking and ``benchmarks/baseline.json``").
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench import gate  # noqa: E402  (path setup must precede the import)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="bench-report.json from `repro bench`")
    parser.add_argument("baseline", help="benchmarks/baseline.json")
    args = parser.parse_args(argv)

    with open(args.report) as f:
        report = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = gate(report, baseline)
    if failures:
        print(f"benchmark regression(s) against {args.baseline}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    rules = sum(len(rule) for rows in baseline.values()
                for metrics in rows.values() for rule in metrics.values())
    print(f"no regressions: {len(report['rows'])} rows, {rules} rules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
