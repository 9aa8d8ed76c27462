"""The tracing core: hierarchical spans, Chrome trace-event export.

One process-wide :class:`Tracer` collects **spans** — named, categorised
wall-clock intervals — from every subsystem (pipeline stages, fixpoint
rounds, SMT queries, store operations, service lanes).  Spans nest by
construction: Chrome's trace viewer (and Perfetto) reconstructs the tree
from ``ts``/``dur`` containment per ``(pid, tid)``, so emitting complete
(``"ph": "X"``) events is enough — no explicit parent ids are needed.

The tracer is **disabled by default** and designed so the disabled path is
as close to free as Python allows: :func:`span` is one attribute load and
one truthiness test before returning a shared no-op context manager (no
allocation, no clock read).  ``repro bench obs`` measures this cost and CI
gates it below 2% of check wall-clock (the ``obs/total off_overhead_pct``
rule in ``benchmarks/baseline.json``).

Enabling:

* ``repro check --trace out.json`` (the CLI calls :meth:`Tracer.enable`
  and exports on exit),
* the ``REPRO_TRACE`` environment variable — any process that imports this
  module with it set starts tracing and dumps on interpreter exit, which is
  how subprocesses (``check --jobs`` workers, perfbench children) produce
  traces without code changes.  A value ending in ``/`` (or naming an
  existing directory) writes one ``trace-<pid>.json`` per process into
  it, ready for ``repro trace merge``.  ``REPRO_TRACE_ID`` pins the trace
  id so all those processes share one.

Timestamps are microseconds on the wall clock (a per-process monotonic
reading shifted by the wall offset captured at enable time), so events
from different processes land on one mergeable axis.

The tracer also owns the **slow-query log**: a bounded top-N heap of the
slowest SMT implications with their kappa/owner provenance, recorded by
the fixpoint layer and exported in the trace's ``otherData``.
"""

from __future__ import annotations

import atexit
import heapq
import json
import os
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional

#: Schema identifier stamped into exported traces (bump on layout changes).
TRACE_SCHEMA = "repro-trace/1"

#: Default size of the slow-query log.
DEFAULT_SLOW_QUERY_LIMIT = 10


class SlowQueryLog:
    """A bounded top-N log of the slowest SMT implications.

    Kept as a min-heap of ``(seconds, seq, info)`` so recording is O(log N)
    and the cheapest retained entry is evicted first; ``seq`` breaks ties
    deterministically (first recorded wins) and keeps the ``info`` dicts
    out of the comparison.
    """

    def __init__(self, limit: int = DEFAULT_SLOW_QUERY_LIMIT) -> None:
        self.limit = max(1, limit)
        self._heap: List[tuple] = []
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, seconds: float, **info: Any) -> None:
        with self._lock:
            entry = (seconds, self._seq, info)
            self._seq += 1
            if len(self._heap) < self.limit:
                heapq.heappush(self._heap, entry)
            elif entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def snapshot(self) -> List[dict]:
        """Slowest first, as plain dicts with a ``seconds`` key."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [dict(info, seconds=seconds)
                for seconds, _seq, info in entries]


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **args: Any) -> None:
        """Attach arguments to the span (no-op while disabled)."""


_NOOP = _NoopSpan()


class Span:
    """One live span; emits a complete ("X") event when it exits."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start_ns = 0

    def __enter__(self) -> "Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def note(self, **args: Any) -> None:
        """Attach result arguments discovered while the span is open."""
        self.args.update(args)

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter_ns()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer.emit(self.name, self.cat, self._start_ns,
                          end - self._start_ns, self.args)
        return False


class Tracer:
    """The process-wide span collector.

    Thread-safe: spans may close on any thread (the async server's
    executor threads); each thread is mapped to a small stable ``tid`` in
    registration order.  Worker processes (``Session.check_files`` under
    ``jobs > 1``) hand their spans back with :meth:`drain`; the parent
    merges them into one trace with :meth:`ingest`.
    """

    def __init__(self, slow_limit: int = DEFAULT_SLOW_QUERY_LIMIT) -> None:
        self.enabled = False
        self.trace_id: Optional[str] = None
        self.slow = SlowQueryLog(slow_limit)
        self._lock = threading.Lock()
        self._events: List[dict] = []
        self._tids: Dict[int, int] = {}
        self._offset_us = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, trace_id: Optional[str] = None,
               slow_limit: Optional[int] = None) -> str:
        """Start collecting; returns the (possibly generated) trace id."""
        with self._lock:
            if trace_id:
                self.trace_id = trace_id
            elif self.trace_id is None:
                self.trace_id = new_trace_id()
            if slow_limit is not None and slow_limit != self.slow.limit:
                self.slow = SlowQueryLog(slow_limit)
            # Wall-minus-monotonic offset: every event timestamp becomes
            # wall-aligned, so traces from different processes merge onto
            # one time axis without post-hoc shifting.
            self._offset_us = (time.time_ns()
                               - time.perf_counter_ns()) // 1000
            self.enabled = True
        return self.trace_id

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Back to a pristine disabled tracer (tests, forked workers)."""
        with self._lock:
            self.enabled = False
            self.trace_id = None
            self._events = []
            self._tids = {}
            self.slow = SlowQueryLog(self.slow.limit)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str, **args: Any):
        if not self.enabled:
            return _NOOP
        return Span(self, name, cat, args)

    def emit(self, name: str, cat: str, start_ns: int, dur_ns: int,
             args: Dict[str, Any]) -> None:
        """Record one complete event (already-finished interval)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": self._offset_us + start_ns // 1000,
            "dur": max(dur_ns // 1000, 1),
            "pid": os.getpid(),
        }
        if args:
            event["args"] = args
        with self._lock:
            ident = threading.get_ident()
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
            event["tid"] = tid
            self._events.append(event)

    def ingest(self, events: List[dict],
               slow_queries: Optional[List[dict]] = None) -> None:
        """Merge events drained from a worker process into this tracer."""
        with self._lock:
            self._events.extend(events)
        for entry in slow_queries or []:
            info = dict(entry)
            seconds = info.pop("seconds", 0.0)
            self.slow.record(seconds, **info)

    # -- output ------------------------------------------------------------

    def drain(self) -> dict:
        """Remove and return everything collected so far (worker handoff)."""
        with self._lock:
            events, self._events = self._events, []
        return {
            "trace_id": self.trace_id,
            "events": events,
            "slow_queries": self.slow.snapshot(),
        }

    def to_document(self) -> dict:
        """A Chrome trace-event document of everything collected so far."""
        with self._lock:
            events = list(self._events)
        return trace_document(events, trace_id=self.trace_id,
                              slow_queries=self.slow.snapshot())

    def export(self, path) -> dict:
        """Write the trace document to ``path`` and return it."""
        document = self.to_document()
        target = pathlib.Path(path)
        if target.parent != pathlib.Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=2) + "\n")
        return document


def trace_document(events: List[dict], trace_id: Optional[str] = None,
                   slow_queries: Optional[List[dict]] = None) -> dict:
    """Assemble a Chrome/Perfetto-loadable trace-event document.

    Events are sorted by ``(pid, tid, ts, -dur)`` — parents before their
    children at equal timestamps — so exports are deterministic for a given
    set of events regardless of collection interleaving.
    """
    ordered = sorted(events, key=lambda e: (e.get("pid", 0),
                                            e.get("tid", 0),
                                            e.get("ts", 0),
                                            -e.get("dur", 0),
                                            e.get("name", "")))
    return {
        "traceEvents": ordered,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "trace_id": trace_id,
            "slow_queries": slow_queries or [],
        },
    }


def new_trace_id() -> str:
    return os.urandom(8).hex()


#: The process-wide tracer every subsystem records into.
_TRACER = Tracer()


def tracer() -> Tracer:
    return _TRACER


def enabled() -> bool:
    return _TRACER.enabled


def span(name: str, cat: str = "app", **args: Any):
    """Open a span on the process tracer (a shared no-op when disabled)."""
    t = _TRACER
    if not t.enabled:
        return _NOOP
    return Span(t, name, cat, args)


def current_trace_id() -> Optional[str]:
    """The active trace id, or ``None`` when tracing is disabled —
    what rides the serve protocol envelope."""
    t = _TRACER
    return t.trace_id if t.enabled else None


class stage_span:
    """Time one pipeline stage: always records the elapsed seconds into a
    :class:`repro.core.result.StageTimings`, and additionally emits a
    pipeline-category trace event when the process tracer is enabled.

    This is the seam that makes ``StageTimings`` *be* the stage layer of
    the span tree — check, watch and serve all read the same numbers.
    """

    __slots__ = ("_timings", "_stage", "_args", "_start_ns")

    def __init__(self, timings, stage: str, **args: Any) -> None:
        self._timings = timings
        self._stage = stage
        self._args = args
        self._start_ns = 0

    def __enter__(self) -> "stage_span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed_ns = time.perf_counter_ns() - self._start_ns
        self._timings.record(self._stage, elapsed_ns / 1e9)
        t = _TRACER
        if t.enabled:
            if exc_type is not None:
                self._args.setdefault("error", exc_type.__name__)
            t.emit(f"stage.{self._stage}", "pipeline", self._start_ns,
                   elapsed_ns, self._args)
        return False


# -- REPRO_TRACE environment hookup -----------------------------------------


def _env_trace_target(value: str) -> pathlib.Path:
    """Where the atexit dump goes: a per-pid file when the value names a
    directory (trailing separator or an existing dir), else the file."""
    path = pathlib.Path(value)
    if value.endswith(("/", os.sep)) or path.is_dir():
        return path / f"trace-{os.getpid()}.json"
    return path


def _dump_env_trace(value: str) -> None:
    try:
        _TRACER.export(_env_trace_target(value))
    except OSError:
        pass  # a vanished trace dir must not break interpreter exit


def _autoenable_from_env() -> None:
    value = os.environ.get("REPRO_TRACE")
    if not value:
        return
    _TRACER.enable(trace_id=os.environ.get("REPRO_TRACE_ID") or None)
    atexit.register(_dump_env_trace, value)


_autoenable_from_env()
