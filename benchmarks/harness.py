"""Shared harness for regenerating the paper's evaluation tables.

The implementation lives in :mod:`repro.bench` (so that the ``python -m
repro bench`` subcommand can drive it); this module re-exports the public
names the benchmark suites import and renders the two paper tables.
"""

from __future__ import annotations

import pathlib
import sys

_SRC = str(pathlib.Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import bench  # noqa: E402  (path setup must precede the import)
from repro.bench import (  # noqa: E402
    BENCHMARKS,
    CODE_CHANGES,
    PAPER_FIGURE6,
    PAPER_FIGURE7,
    check_benchmark,
    count_annotations,
    count_loc,
    source_of,
)

__all__ = [
    "BENCHMARKS", "CODE_CHANGES", "PAPER_FIGURE6", "PAPER_FIGURE7",
    "check_benchmark", "count_annotations", "count_loc", "format_figure7",
    "source_of",
]


def format_figure7(names=None) -> str:
    return bench.render(bench.run(["figure7"], names))


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "figure6"
    if which not in ("figure6", "figure7"):
        raise SystemExit(f"unknown table {which!r} (expected figure6 or figure7)")
    print(bench.render(bench.run([which])))


if __name__ == "__main__":
    main()
