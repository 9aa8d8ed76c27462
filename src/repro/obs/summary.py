"""Trace post-processing: validate, merge and summarize trace documents.

These back the ``repro trace`` CLI:

* :func:`validate_trace` checks a document against the Chrome trace-event
  shape this repo emits (``repro-trace/1``): complete events only, integer
  microsecond timestamps, well-formed ``args``.
* :func:`merge_traces` combines documents from many processes (per-pid
  ``REPRO_TRACE`` dumps, say) into one — timestamps are wall-aligned at
  emit time, so merging is concatenation plus a deterministic re-sort and
  a re-bounding of the combined slow-query log.
* :func:`summarize` aggregates a document into per-subsystem, per-stage,
  per-module and per-tenant tables (:func:`format_summary` renders them).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

from repro.obs.trace import TRACE_SCHEMA, SlowQueryLog, trace_document

#: Stage-span name prefix emitted by the pipeline instrumentation.
_STAGE_PREFIX = "stage."

#: ``smt.query`` results (the SMT answer to ``hyps /\ !goal``) by verdict.
_VERDICTS = {"unsat": "valid", "sat": "refuted_by_solver"}


def load_trace(path) -> dict:
    """Read one trace document from disk."""
    return json.loads(pathlib.Path(path).read_text())


def validate_trace(document: dict) -> List[str]:
    """Schema problems with ``document`` (empty list means valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    other = document.get("otherData")
    if not isinstance(other, dict):
        problems.append("missing 'otherData' object")
    elif other.get("schema") != TRACE_SCHEMA:
        problems.append(f"otherData.schema is {other.get('schema')!r}, "
                        f"expected {TRACE_SCHEMA!r}")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kind in (("name", str), ("cat", str)):
            if not isinstance(event.get(key), kind):
                problems.append(f"{where}: missing {key!r} string")
        if event.get("ph") != "X":
            problems.append(f"{where}: ph is {event.get('ph')!r}, "
                            "expected 'X' (complete event)")
        for key in ("ts", "dur", "pid", "tid"):
            value = event.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                problems.append(f"{where}: {key!r} must be a non-negative "
                                f"integer, got {value!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


def _tracks(events: List[dict]) -> Dict[tuple, List[dict]]:
    """Events grouped by ``(pid, tid)``, each track in span-tree order
    (parents before the children they contain).  Malformed events (no
    integer ts/dur) are validate_trace's problem and are left out."""
    tracks: Dict[tuple, List[dict]] = {}
    for event in events:
        if not isinstance(event.get("ts"), int) \
                or not isinstance(event.get("dur"), int):
            continue
        tracks.setdefault((event.get("pid"), event.get("tid")),
                          []).append(event)
    for track in tracks.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
    return tracks


def check_nesting(document: dict) -> List[str]:
    """Spans that overlap without nesting within one ``(pid, tid)`` track.

    Chrome/Perfetto reconstruct the span tree from interval containment;
    two spans on one track that partially overlap cannot be rendered as a
    tree, so any such pair is a bug in the instrumentation (or a merge of
    mis-aligned clocks)."""
    problems: List[str] = []
    for key, events in sorted(_tracks(document.get("traceEvents", [])).items()):
        stack: List[dict] = []
        for event in events:
            while stack and event["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                if event["ts"] + event["dur"] > parent["ts"] + parent["dur"]:
                    problems.append(
                        f"pid={key[0]} tid={key[1]}: span "
                        f"{event['name']!r} at ts={event['ts']} overlaps "
                        f"{parent['name']!r} without nesting")
            stack.append(event)
    return problems


def merge_traces(documents: List[dict]) -> dict:
    """One document from many: concatenated events, combined slow log."""
    events: List[dict] = []
    slow = SlowQueryLog()
    trace_ids = []
    for document in documents:
        events.extend(document.get("traceEvents", []))
        other = document.get("otherData") or {}
        trace_id = other.get("trace_id")
        if trace_id and trace_id not in trace_ids:
            trace_ids.append(trace_id)
        for entry in other.get("slow_queries", []):
            info = dict(entry)
            seconds = info.pop("seconds", 0.0)
            slow.record(seconds, **info)
    merged_id = trace_ids[0] if len(trace_ids) == 1 else \
        ("+".join(trace_ids) if trace_ids else None)
    return trace_document(events, trace_id=merged_id,
                          slow_queries=slow.snapshot())


def _self_times(events: List[dict]) -> Dict[int, int]:
    """Self-time in µs of every well-formed event, keyed by ``id(event)``:
    its duration minus the durations of the spans directly nested in it on
    the same ``(pid, tid)`` track."""
    self_us: Dict[int, int] = {}
    for track in _tracks(events).values():
        stack: List[dict] = []
        for event in track:
            while stack and event["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                self_us[id(stack[-1])] -= event["dur"]
            self_us[id(event)] = event["dur"]
            stack.append(event)
    return self_us


def _bucket(table: Dict[str, dict], key: str, dur_us: int) -> None:
    row = table.setdefault(key, {"spans": 0, "seconds": 0.0})
    row["spans"] += 1
    row["seconds"] += dur_us / 1e6


def summarize(document: dict) -> dict:
    """Aggregate one trace document into breakdown tables.

    * ``subsystems`` — spans, total seconds and self seconds per category,
    * ``stages`` — per pipeline stage (``stage.*`` spans),
    * ``modules`` — per checked document (``pipeline.check`` spans' ``uri``),
    * ``tenants`` — per service tenant (``service.*`` spans' ``tenant``),
    * ``verdicts`` — ``smt.query`` spans by answer: ``valid``, ``unknown``
      and the two kinds of refutation, ``refuted_by_solver`` (a SAT search
      and a theory check) and ``refuted_by_model`` (evaluation under a
      model kept from an earlier refutation of the batch, ``model=true``),
    * ``slow_queries`` — the exported top-N slow-implication log.

    ``seconds`` are summed span durations, so nested spans count toward
    both their own bucket and their ancestors' — they answer "where does
    time go inside each layer", not "what fraction of one wall-clock".
    A subsystem's ``self_seconds`` leave out the time of directly nested
    spans, so on one thread they add up to the wall-clock the spans cover.
    """
    subsystems: Dict[str, dict] = {}
    stages: Dict[str, dict] = {}
    modules: Dict[str, dict] = {}
    tenants: Dict[str, dict] = {}
    verdicts: Dict[str, int] = {}
    pids = set()
    events = document.get("traceEvents", [])
    self_us = _self_times(events)
    for event in events:
        dur = int(event.get("dur", 0))
        args = event.get("args") or {}
        pids.add(event.get("pid"))
        category = str(event.get("cat", "?"))
        _bucket(subsystems, category, dur)
        row = subsystems[category]
        row["self_seconds"] = (row.get("self_seconds", 0.0)
                               + self_us.get(id(event), dur) / 1e6)
        name = str(event.get("name", ""))
        if name.startswith(_STAGE_PREFIX):
            _bucket(stages, name[len(_STAGE_PREFIX):], dur)
            module = args.get("module")
            if module:
                _bucket(modules, str(module), dur)
        elif name == "pipeline.check" and args.get("uri"):
            row = modules.setdefault(str(args["uri"]),
                                     {"spans": 0, "seconds": 0.0})
            row["checks"] = row.get("checks", 0) + 1
        if event.get("cat") == "service" and args.get("tenant"):
            _bucket(tenants, str(args["tenant"]), dur)
        if name == "smt.query":
            verdict = _VERDICTS.get(args.get("result"), "unknown")
            if args.get("model"):
                verdict = "refuted_by_model"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    other = document.get("otherData") or {}
    return {
        "trace_id": other.get("trace_id"),
        "events": len(document.get("traceEvents", [])),
        "processes": len(pids),
        "subsystems": dict(sorted(subsystems.items())),
        "stages": dict(sorted(stages.items())),
        "modules": dict(sorted(modules.items())),
        "tenants": dict(sorted(tenants.items())),
        "verdicts": dict(sorted(verdicts.items())),
        "slow_queries": other.get("slow_queries", []),
    }


def _table(title: str, header: str, rows: List[str]) -> List[str]:
    if not rows:
        return []
    width = max(len(header), *(len(r) for r in rows))
    return [title, header, "-" * width, *rows, ""]


def format_summary(summary: dict) -> str:
    """The tables ``repro trace summarize`` prints."""
    lines = [f"trace {summary.get('trace_id') or '<unidentified>'}: "
             f"{summary['events']} span(s) across "
             f"{summary['processes']} process(es)", ""]
    lines += _table(
        "Subsystems",
        f"{'category':12s} {'spans':>8s} {'total(s)':>10s} {'self(s)':>10s}",
        [f"{name:12s} {row['spans']:8d} {row['seconds']:10.3f} "
         f"{row['self_seconds']:10.3f}"
         for name, row in summary["subsystems"].items()])
    lines += _table(
        "Pipeline stages",
        f"{'stage':12s} {'spans':>8s} {'total(s)':>10s} {'mean(ms)':>10s}",
        [f"{name:12s} {row['spans']:8d} {row['seconds']:10.3f} "
         f"{1000.0 * row['seconds'] / row['spans']:10.2f}"
         for name, row in summary["stages"].items()])
    module_width = max([28] + [len(name) for name in summary["modules"]])
    lines += _table(
        "Modules",
        f"{'module':{module_width}s} {'spans':>8s} {'total(s)':>10s}",
        [f"{name:{module_width}s} {row['spans']:8d} {row['seconds']:10.3f}"
         for name, row in summary["modules"].items()])
    lines += _table(
        "Tenants",
        f"{'tenant':16s} {'spans':>8s} {'total(s)':>10s}",
        [f"{name:16s} {row['spans']:8d} {row['seconds']:10.3f}"
         for name, row in summary["tenants"].items()])
    lines += _table(
        "SMT queries",
        f"{'verdict':18s} {'queries':>8s}",
        [f"{name:18s} {count:8d}"
         for name, count in summary.get("verdicts", {}).items()])
    slow = summary.get("slow_queries") or []
    if slow:
        lines.append(f"Slowest implications (top {len(slow)})")
        header = (f"{'seconds':>9s}  {'kind':10s} {'kappa':18s} "
                  f"{'owner':18s} goals")
        lines.append(header)
        lines.append("-" * len(header))
        for entry in slow:
            lines.append(
                f"{entry.get('seconds', 0.0):9.4f}  "
                f"{str(entry.get('kind', '?')):10s} "
                f"{str(entry.get('kappa', '-')):18s} "
                f"{str(entry.get('owner', '-')):18s} "
                f"{entry.get('goals', 1)}")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def summarize_path(path) -> str:
    """Convenience: load, summarize and render one trace file."""
    return format_summary(summarize(load_trace(path)))
