"""The one nearest-rank :func:`percentile` implementation.

The service latency window (the ``stats`` method's ``latency`` block) and
both bench latency reports delegate here (three hand-rolled copies used to
disagree off-by-one).  Every other number is reported by the typed stats
carriers themselves (:class:`~repro.core.result.StageTimings`,
:class:`~repro.core.result.SolveStats`,
:class:`~repro.smt.solver.SolverStats` and the store counters).
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for an empty one)."""
    values = list(values)
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]
