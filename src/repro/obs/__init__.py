"""Observability: unified tracing for every subsystem.

* :mod:`repro.obs.trace` — hierarchical spans on a process-wide tracer,
  exported as Chrome trace-event JSON (``repro check --trace``, the
  ``REPRO_TRACE`` environment variable), plus the slow-query log.
* :mod:`repro.obs.metrics` — the one nearest-rank :func:`percentile`
  implementation.  The numbers themselves are the typed stats carriers
  (``StageTimings``, ``SolveStats``, ``SolverStats``, the store counters),
  each reported once, where it is produced.
* :mod:`repro.obs.summary` — validate / merge / summarize trace documents
  (the ``repro trace`` CLI).
"""

from repro.obs.metrics import percentile
from repro.obs.trace import (TRACE_SCHEMA, SlowQueryLog, Span, Tracer,
                             current_trace_id, enabled, new_trace_id, span,
                             stage_span, trace_document, tracer)

__all__ = [
    "percentile", "TRACE_SCHEMA", "SlowQueryLog", "Span", "Tracer",
    "current_trace_id", "enabled", "new_trace_id", "span", "stage_span",
    "trace_document", "tracer",
]
