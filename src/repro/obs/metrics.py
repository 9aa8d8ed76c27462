"""The unified metrics registry: Counter / Gauge / Histogram.

One deterministic snapshot shape for every surface that reports numbers —
the serve-protocol v3 ``metrics`` method, ``repro cache stats``, and
``repro check --format json`` all render a :class:`MetricsRegistry`
populated from the four existing stats dataclasses
(:class:`~repro.core.result.StageTimings`,
:class:`~repro.core.result.SolveStats`,
:class:`~repro.smt.solver.SolverStats` and the store counters).

:func:`percentile` is the **one** nearest-rank implementation in the
codebase; the service latency window and both bench latency reports
delegate here (three hand-rolled copies used to disagree off-by-one).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Union

Number = Union[int, float]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for an empty one)."""
    values = list(values)
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Counter:
    """A monotonically-increasing integer."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time float (seconds, ratios, sizes)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A sample distribution with nearest-rank percentiles.

    With ``window`` set, only the most recent ``window`` observations are
    retained (the service's per-tenant latency window); ``count`` is the
    retained sample size, ``observed`` the lifetime total.
    """

    __slots__ = ("_values", "observed")

    def __init__(self, window: Optional[int] = None) -> None:
        self._values = deque(maxlen=window) if window else deque()
        self.observed = 0

    def observe(self, value: float) -> None:
        self._values.append(value)
        self.observed += 1

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[float]:
        return list(self._values)

    def percentile(self, q: float) -> float:
        return percentile(self._values, q)

    def snapshot(self) -> dict:
        values = list(self._values)
        if not values:
            return {"count": 0, "observed": self.observed, "min": 0.0,
                    "max": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0}
        return {
            "count": len(values),
            "observed": self.observed,
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p90": percentile(values, 90.0),
            "p99": percentile(values, 99.0),
        }


class MetricsRegistry:
    """A flat namespace of metrics with a deterministic JSON snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str,
                  window: Optional[int] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(window)
        return metric

    def attach_histogram(self, name: str, histogram: Histogram) -> None:
        """Register an externally-owned histogram (e.g. a tenant's live
        latency window) so snapshots include it without copying."""
        self._histograms[name] = histogram

    def load(self, prefix: str, mapping: Optional[dict]) -> None:
        """Bulk-load a stats ``to_dict()``: ints become counters, floats
        gauges; non-numeric values (strategy names, states) are skipped."""
        for key, value in (mapping or {}).items():
            name = f"{prefix}.{key}"
            if isinstance(value, bool):
                self.counter(name).value = int(value)
            elif isinstance(value, int):
                self.counter(name).value = value
            elif isinstance(value, float):
                self.gauge(name).set(value)

    def to_dict(self) -> dict:
        """Sorted, JSON-ready snapshot of every metric."""
        return {
            "counters": {name: c.snapshot()
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.snapshot()
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self._histograms.items())},
        }


def registry_from_stats(timings=None, solve=None, solver=None,
                        store: Optional[dict] = None) -> MetricsRegistry:
    """Build a registry from the four existing stats carriers.

    ``timings`` is a :class:`~repro.core.result.StageTimings`, ``solve`` a
    :class:`~repro.core.result.SolveStats`, ``solver`` a
    :class:`~repro.smt.solver.SolverStats`; ``store`` is the counter dict
    the artifact store exposes.
    """
    registry = MetricsRegistry()
    if timings is not None:
        # StageTimings.to_dict already includes the "total" key.
        for stage, seconds in timings.to_dict().items():
            registry.gauge(f"pipeline.seconds.{stage}").set(seconds)
    if solve is not None:
        registry.load("fixpoint", solve.to_dict())
    if solver is not None:
        registry.load("smt", solver.to_dict())
    if store:
        registry.load("store", store)
    return registry
