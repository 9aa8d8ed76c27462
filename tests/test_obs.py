"""The unified tracing + metrics layer (``repro.obs``).

The contract under test:

* the disabled tracer is a true no-op: ``span()`` returns one shared
  singleton, no event is recorded, and enabling/disabling the tracer
  never changes a verdict (byte-identity);
* exported traces are valid Chrome trace-event documents — complete
  ("X") events, integer microsecond timestamps, the ``repro-trace/1``
  schema stamp — with strictly nested spans per ``(pid, tid)`` track,
  and the export order is deterministic;
* a parallel project build (``--jobs N``) merges every worker process's
  spans into one valid trace under one trace id;
* :func:`repro.obs.metrics.percentile` is the one nearest-rank
  implementation: the service latency window and the bench reports
  delegate here;
* ``CheckPayload.timings`` rides repro-serve/3 but is withheld from v2
  responses (recorded v2 transcripts stay byte-identical);
* the v3 ``metrics`` method returns the unified registry snapshot.
"""

import json
import math
import subprocess
import sys
import pathlib

import pytest

from repro.client import Client
from repro.core.config import CheckConfig, ObsOptions
from repro.core.result import StageTimings
from repro.core.session import Session
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               percentile, registry_from_stats)
from repro.obs.summary import (check_nesting, format_summary, load_trace,
                               merge_traces, summarize, validate_trace)
from repro.obs.trace import (TRACE_SCHEMA, SlowQueryLog, current_trace_id,
                             span, stage_span, trace_document, tracer)
from repro.service.protocol import METHODS, CheckPayload
from repro.wire import Request, spec_for
from repro.store.artifacts import config_fingerprint

SAFE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

SRC_DIR = str(pathlib.Path(__file__).parent.parent / "src")


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    tracer().reset()
    yield
    tracer().reset()


def _verdict(result):
    return ([d.to_dict() for d in result.diagnostics],
            {k: [str(q) for q in v]
             for k, v in sorted(result.kappa_solution.items())})


# -- percentile / histogram --------------------------------------------------


def test_percentile_nearest_rank():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile(values, 50.0) == 35.0
    assert percentile(values, 30.0) == 20.0
    assert percentile(values, 100.0) == 50.0
    assert percentile(values, 0.0) == 15.0
    assert percentile([], 99.0) == 0.0
    assert percentile([7.0], 50.0) == 7.0


def test_percentile_matches_reference_definition():
    values = list(range(1, 101))
    for q in (1, 25, 50, 90, 99, 100):
        rank = max(0, min(99, math.ceil(q / 100.0 * 100) - 1))
        assert percentile(values, float(q)) == sorted(values)[rank]


def test_percentile_single_implementation():
    """The service and bench layers must delegate to repro.obs.metrics."""
    from repro.service import core as service_core
    assert service_core.percentile is percentile


def test_histogram_window_and_snapshot():
    hist = Histogram(window=3)
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    assert hist.values() == [2.0, 3.0, 4.0]
    snap = hist.snapshot()
    assert snap["count"] == 3
    assert snap["observed"] == 4
    assert snap["min"] == 2.0 and snap["max"] == 4.0
    assert snap["p50"] == percentile([2.0, 3.0, 4.0], 50.0)


def test_histogram_empty_snapshot_shape():
    snap = Histogram().snapshot()
    assert snap == {"count": 0, "observed": 0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}


def test_registry_snapshot_deterministic():
    registry = MetricsRegistry()
    registry.counter("b.count").inc(2)
    registry.counter("a.count").inc()
    registry.gauge("z.seconds").set(1.5)
    registry.histogram("lat").observe(3.0)
    first = registry.to_dict()
    assert list(first["counters"]) == ["a.count", "b.count"]
    assert first == registry.to_dict()
    assert json.dumps(first) == json.dumps(registry.to_dict())


def test_registry_load_skips_non_numeric():
    registry = MetricsRegistry()
    registry.load("fx", {"rounds": 3, "time": 0.5, "strategy": "worklist"})
    snap = registry.to_dict()
    assert snap["counters"] == {"fx.rounds": 3}
    assert snap["gauges"] == {"fx.time": 0.5}


def test_registry_from_stats_namespaces():
    timings = StageTimings()
    timings.record("parse", 0.25)
    session = Session(CheckConfig())
    session.check_source(SAFE, filename="a.rsc")
    registry = registry_from_stats(timings=timings,
                                   solver=session.solver.stats,
                                   store={"hits": 2})
    snap = registry.to_dict()
    assert snap["gauges"]["pipeline.seconds.parse"] == 0.25
    assert "pipeline.seconds.total" in snap["gauges"]
    assert snap["counters"]["smt.queries"] > 0
    assert snap["counters"]["store.hits"] == 2


def test_counter_gauge_primitives():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.snapshot() == 5
    gauge = Gauge()
    gauge.set(2.5)
    assert gauge.snapshot() == 2.5


# -- slow-query log ----------------------------------------------------------


def test_slow_query_log_keeps_top_n_slowest_first():
    log = SlowQueryLog(limit=3)
    for index, seconds in enumerate([0.1, 0.5, 0.2, 0.9, 0.05]):
        log.record(seconds, kappa=f"$k{index}")
    snapshot = log.snapshot()
    assert [entry["seconds"] for entry in snapshot] == [0.9, 0.5, 0.2]
    assert snapshot[0]["kappa"] == "$k3"


def test_slow_query_log_tie_break_first_wins():
    log = SlowQueryLog(limit=2)
    log.record(0.5, kappa="first")
    log.record(0.5, kappa="second")
    log.record(0.5, kappa="third")
    assert [e["kappa"] for e in log.snapshot()] == ["first", "second"]


# -- tracer core -------------------------------------------------------------


def test_disabled_span_is_shared_noop():
    assert not tracer().enabled
    first = span("a", "app")
    second = span("b", "app", detail=1)
    assert first is second
    with first as sp:
        sp.note(ignored=True)
    assert tracer().drain()["events"] == []
    assert current_trace_id() is None


def test_enabled_span_records_event_with_args():
    t = tracer()
    trace_id = t.enable(trace_id="cafe0123")
    assert trace_id == "cafe0123"
    assert current_trace_id() == "cafe0123"
    with span("work.unit", "app", item=3) as sp:
        sp.note(result="ok")
    events = t.drain()["events"]
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "work.unit"
    assert event["cat"] == "app"
    assert event["ph"] == "X"
    assert event["dur"] >= 1
    assert event["args"] == {"item": 3, "result": "ok"}


def test_span_records_error_class_on_exception():
    t = tracer()
    t.enable()
    with pytest.raises(ValueError):
        with span("work.unit", "app"):
            raise ValueError("boom")
    events = t.drain()["events"]
    assert events[0]["args"]["error"] == "ValueError"


def test_stage_span_always_records_timings():
    timings = StageTimings()
    with stage_span(timings, "parse", module="a.rsc"):
        pass
    assert timings.parse > 0.0
    assert tracer().drain()["events"] == []  # disabled: no event
    tracer().enable()
    with stage_span(timings, "solve"):
        pass
    events = tracer().drain()["events"]
    assert [e["name"] for e in events] == ["stage.solve"]
    assert events[0]["cat"] == "pipeline"
    assert timings.solve > 0.0


def test_trace_document_sorted_and_stamped():
    events = [
        {"name": "b", "cat": "app", "ph": "X", "ts": 10, "dur": 5,
         "pid": 1, "tid": 0},
        {"name": "a", "cat": "app", "ph": "X", "ts": 10, "dur": 9,
         "pid": 1, "tid": 0},
    ]
    document = trace_document(list(reversed(events)), trace_id="feed")
    assert document["otherData"]["schema"] == TRACE_SCHEMA
    assert document["otherData"]["trace_id"] == "feed"
    # longer span first at equal ts: parents precede children
    assert [e["name"] for e in document["traceEvents"]] == ["a", "b"]
    assert validate_trace(document) == []
    assert check_nesting(document) == []


def test_ingest_merges_worker_events_and_slow_queries():
    t = tracer()
    t.enable(trace_id="abcd")
    t.ingest([{"name": "w", "cat": "app", "ph": "X", "ts": 1, "dur": 2,
               "pid": 99, "tid": 0}],
             [{"seconds": 0.7, "kappa": "$k"}])
    drained = t.drain()
    assert drained["trace_id"] == "abcd"
    assert [e["pid"] for e in drained["events"]] == [99]
    assert drained["slow_queries"][0]["seconds"] == 0.7


# -- no-op byte-identity -----------------------------------------------------


def test_tracing_never_changes_verdicts():
    baseline = _verdict(Session(CheckConfig()).check_source(SAFE, "a.rsc"))
    tracer().enable()
    traced = _verdict(Session(CheckConfig()).check_source(SAFE, "a.rsc"))
    events = tracer().drain()["events"]
    tracer().reset()
    again = _verdict(Session(CheckConfig()).check_source(SAFE, "a.rsc"))
    assert traced == baseline
    assert again == baseline
    assert events  # the traced run actually collected spans
    categories = {e["cat"] for e in events}
    assert {"pipeline", "fixpoint"} <= categories


def test_obs_options_excluded_from_store_fingerprint():
    plain = CheckConfig()
    traced = CheckConfig(obs=ObsOptions(trace_path="t.json",
                                        slow_query_limit=3))
    assert config_fingerprint(plain) == config_fingerprint(traced)


# -- end-to-end: pipeline instrumentation ------------------------------------


def test_check_emits_spans_from_all_subsystems(tmp_path):
    config = CheckConfig(store_path=str(tmp_path / "store"))
    t = tracer()
    t.enable()
    Session(config).check_source(SAFE, filename="a.rsc")
    events = t.drain()["events"]
    categories = {e["cat"] for e in events}
    assert {"pipeline", "fixpoint", "smt", "store"} <= categories
    names = {e["name"] for e in events}
    assert "stage.solve" in names
    assert "fixpoint.solve" in names
    assert "store.open" in names


def test_slow_query_log_carries_kappa_owner_provenance():
    t = tracer()
    t.enable()
    Session(CheckConfig()).check_source(SAFE, filename="a.rsc")
    slow = t.drain()["slow_queries"]
    assert slow, "the fixpoint layer recorded no slow implications"
    entry = slow[0]
    assert entry["seconds"] > 0.0
    assert "kind" in entry and "owner" in entry


def test_parallel_project_build_merges_one_valid_trace(tmp_path):
    for name, text in (
            ("types.rsc", "export type NEArray<T> = "
                          "{v: T[] | 0 < len(v)};\n"),
            ("lib.rsc", 'import {NEArray} from "./types";\n'
                        "export spec head :: (xs: NEArray<number>) => "
                        "number;\nexport function head(xs) "
                        "{ return xs[0]; }\n")):
        (tmp_path / name).write_text(text)
    t = tracer()
    trace_id = t.enable()
    project = Session(CheckConfig(jobs=2)).check_project(tmp_path)
    assert project.ok
    document = trace_document(t.drain()["events"], trace_id=trace_id)
    assert validate_trace(document) == []
    assert check_nesting(document) == []
    summary = summarize(document)
    assert summary["trace_id"] == trace_id
    assert "stage.parse" in {e["name"]
                             for e in document["traceEvents"]}


def test_export_round_trip(tmp_path):
    t = tracer()
    t.enable(trace_id="0011")
    with span("outer", "app"):
        with span("inner", "app"):
            pass
    path = tmp_path / "trace.json"
    exported = t.export(path)
    loaded = load_trace(path)
    assert loaded == exported
    assert validate_trace(loaded) == []
    assert check_nesting(loaded) == []
    assert loaded["displayTimeUnit"] == "ms"


def test_merge_traces_combines_ids_and_slow_queries():
    def doc(trace_id, seconds):
        return {
            "traceEvents": [{"name": "e", "cat": "app", "ph": "X",
                             "ts": 1, "dur": 1, "pid": 1, "tid": 0}],
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "trace_id": trace_id,
                          "slow_queries": [{"seconds": seconds}]},
        }
    merged = merge_traces([doc("aa", 0.1), doc("bb", 0.9)])
    assert merged["otherData"]["trace_id"] == "aa+bb"
    assert len(merged["traceEvents"]) == 2
    assert merged["otherData"]["slow_queries"][0]["seconds"] == 0.9
    same = merge_traces([doc("aa", 0.1), doc("aa", 0.2)])
    assert same["otherData"]["trace_id"] == "aa"


def test_summarize_tables(tmp_path):
    t = tracer()
    t.enable()
    Session(CheckConfig()).check_source(SAFE, filename="a.rsc")
    document = trace_document(t.drain()["events"], trace_id=t.trace_id)
    summary = summarize(document)
    assert summary["events"] == len(document["traceEvents"])
    assert summary["processes"] == 1
    assert "pipeline" in summary["subsystems"]
    assert "solve" in summary["stages"]
    rendered = format_summary(summary)
    assert "Subsystems" in rendered and "Pipeline stages" in rendered


def test_summarize_self_times_add_up_to_the_wall_clock():
    """Nested fixpoint spans: the totals count the inner spans once per
    enclosing level, the self-times add up to the wall-clock."""
    def event(name, cat, ts, dur, tid=0):
        return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": tid}

    document = trace_document([
        event("fixpoint.solve", "fixpoint", 0, 1_000_000),
        event("fixpoint.round", "fixpoint", 100_000, 800_000),
        event("fixpoint.batch", "fixpoint", 200_000, 600_000),
        event("smt.query", "smt", 300_000, 400_000),
        # another thread's span is not a child of the solve
        event("fixpoint.solve", "fixpoint", 0, 500_000, tid=1),
    ])
    assert check_nesting(document) == []
    fixpoint = summarize(document)["subsystems"]["fixpoint"]
    smt = summarize(document)["subsystems"]["smt"]
    assert fixpoint["seconds"] == pytest.approx(2.9)
    assert fixpoint["self_seconds"] == pytest.approx(1.1)
    assert smt["self_seconds"] == pytest.approx(0.4)
    assert fixpoint["self_seconds"] + smt["self_seconds"] \
        == pytest.approx(1.0 + 0.5)
    assert "self(s)" in format_summary(summarize(document))


def test_validate_trace_reports_problems():
    bad = {"traceEvents": [{"name": "x", "cat": "app", "ph": "B",
                            "ts": -1, "dur": 1, "pid": 1, "tid": 0}],
           "otherData": {"schema": "wrong/9"}}
    problems = validate_trace(bad)
    assert any("ph" in p for p in problems)
    assert any("ts" in p for p in problems)
    assert any("schema" in p for p in problems)
    assert validate_trace({"nope": 1}) == ["missing 'traceEvents' list"]


def test_check_nesting_flags_partial_overlap():
    document = trace_document([
        {"name": "a", "cat": "app", "ph": "X", "ts": 0, "dur": 10,
         "pid": 1, "tid": 0},
        {"name": "b", "cat": "app", "ph": "X", "ts": 5, "dur": 10,
         "pid": 1, "tid": 0},
    ])
    assert check_nesting(document)
    across_tracks = trace_document([
        {"name": "a", "cat": "app", "ph": "X", "ts": 0, "dur": 10,
         "pid": 1, "tid": 0},
        {"name": "b", "cat": "app", "ph": "X", "ts": 5, "dur": 10,
         "pid": 2, "tid": 0},
    ])
    assert check_nesting(across_tracks) == []


# -- REPRO_TRACE environment hookup ------------------------------------------


def test_env_autoenable_dumps_per_pid_trace(tmp_path):
    code = ("import repro.obs.trace as t; "
            "assert t.tracer().enabled; "
            "assert t.current_trace_id() == 'feedbeef'; "
            "t.span('env.work', 'app').__enter__().__exit__("
            "None, None, None)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC_DIR, "REPRO_TRACE": str(tmp_path) + "/",
             "REPRO_TRACE_ID": "feedbeef", "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    dumps = list(tmp_path.glob("trace-*.json"))
    assert len(dumps) == 1
    document = load_trace(dumps[0])
    assert document["otherData"]["trace_id"] == "feedbeef"
    assert [e["name"] for e in document["traceEvents"]] == ["env.work"]


# -- protocol: version-gated timings, trace envelope, metrics method ---------


def test_check_payload_timings_gated_by_version():
    payload = CheckPayload(uri="a.rsc", status="SAFE", ok=True,
                           diagnostics=[], time_seconds=0.5,
                           timings={"parse": 0.1, "total": 0.5})
    v3 = payload.to_json(3)
    v2 = payload.to_json(2)
    assert v3["timings"] == {"parse": 0.1, "total": 0.5}
    assert "timings" not in v2
    assert {k: v for k, v in v3.items() if k != "timings"} == v2


def test_request_trace_field_gated_by_version():
    request = Request(method="stats", id=1,
                      params=spec_for(METHODS, "stats").params(),
                      trace="cafebabe")
    assert request.to_json(version=3)["trace"] == "cafebabe"
    assert "trace" not in request.to_json(version=2)


def test_client_stamps_trace_id_on_requests():
    tracer().enable(trace_id="00ddba11")
    client = Client.local(CheckConfig())
    client.check("a.rsc", SAFE)
    # the local transport reuses this process's tracer: the service span
    # layer sees the same trace id the client stamped
    assert current_trace_id() == "00ddba11"


def test_metrics_method_end_to_end():
    client = Client.local(CheckConfig())
    client.check("a.rsc", SAFE)
    payload = client.metrics()
    assert payload.protocol == "repro-serve/3"
    assert payload.totals["counters"]["service.checks_run"] == 1
    tenant = payload.tenants["default"]
    assert tenant["counters"]["service.checks_run"] == 1
    assert tenant["counters"]["smt.queries"] > 0
    latency = tenant["histograms"]["service.latency_ms"]
    assert latency["count"] == 1
    assert latency["p99"] >= latency["p50"] > 0.0


def test_stats_latency_window_uses_obs_histogram():
    client = Client.local(CheckConfig())
    client.check("a.rsc", SAFE)
    core = client.transport.core
    session = core.manager.get("default")
    assert isinstance(session.latencies_ms, Histogram)
    entry = session.stats_entry()
    values = session.latencies_ms.values()
    assert entry["latency"]["p50_ms"] == percentile(values, 50.0)
    assert entry["latency"]["p99_ms"] == percentile(values, 99.0)


def test_serve_check_payload_carries_timings():
    client = Client.local(CheckConfig())
    payload = client.check("a.rsc", SAFE)
    assert payload.timings is not None
    assert payload.timings["total"] > 0.0
    assert payload.timings["solve"] > 0.0


# -- CLI ---------------------------------------------------------------------


def test_cli_check_trace_then_summarize_validate_merge(tmp_path, capsys):
    from repro.__main__ import main
    source = tmp_path / "a.rsc"
    source.write_text(SAFE)
    trace_path = tmp_path / "t.json"
    assert main(["check", "--trace", str(trace_path), str(source)]) == 0
    capsys.readouterr()
    document = load_trace(trace_path)
    assert validate_trace(document) == []
    assert main(["trace", "validate", str(trace_path)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "Subsystems" in out and "Pipeline stages" in out
    merged = tmp_path / "merged.json"
    assert main(["trace", "merge", str(trace_path), str(trace_path),
                 "--out", str(merged)]) == 0
    capsys.readouterr()
    assert main(["trace", "validate", str(merged)]) == 0
    assert len(load_trace(merged)["traceEvents"]) == \
        2 * len(document["traceEvents"])


def test_cli_trace_validate_fails_on_garbage(tmp_path, capsys):
    from repro.__main__ import main
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "B"}]}))
    assert main(["trace", "validate", str(bad)]) == 1
    assert "ph" in capsys.readouterr().out


def test_cli_check_json_includes_metrics(tmp_path, capsys):
    from repro.__main__ import main
    source = tmp_path / "a.rsc"
    source.write_text(SAFE)
    assert main(["check", "--format", "json", str(source)]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["metrics"]
    assert metrics["counters"]["smt.queries"] > 0
    assert metrics["gauges"]["pipeline.seconds.total"] > 0.0


# -- bench obs ---------------------------------------------------------------


def test_noop_span_cost_shape():
    from repro.bench import noop_span_cost
    cost = noop_span_cost(calls=1000)
    assert cost["calls"] == 1000
    assert cost["seconds"] > 0.0
    assert cost["per_call_ns"] > 0.0
    assert not tracer().enabled


def test_obs_report_gate_fields():
    from repro.bench import Row, gate, obs_total
    rows = [Row("obs", "x", seconds=1.0, digest="d"),
            Row("obs", "x/traced", counters={"spans": 100}, seconds=1.1,
                digest="d")]
    total = obs_total(rows, {"calls": 10, "seconds": 1e-6,
                             "per_call_ns": 100.0})
    assert (total.bench, total.name) == ("obs", "total")
    assert total.counters["spans"] == 100
    assert total.counters["off_overhead_pct"] == pytest.approx(0.001)
    assert total.counters["on_overhead_pct"] == pytest.approx(10.0)
    report = {"rows": [row.to_dict() for row in rows + [total]]}
    baseline = {"obs": {"total": {"spans": {"min": 50},
                                  "off_overhead_pct": {"max": 2.0}}}}
    assert gate(report, baseline) == []


def test_bench_obs_prints_the_gated_overhead(monkeypatch):
    """The table shows the off_overhead_pct that is written and gated, not
    a second measurement of the no-op span cost."""
    from repro import bench
    costs = iter([100.0, 900.0])
    monkeypatch.setattr(bench, "noop_span_cost", lambda: {
        "calls": 1, "seconds": 0.0, "per_call_ns": next(costs)})
    report = bench.run(["obs"], ["tsc-checker"])
    total = next(row for row in report["rows"] if row["name"] == "total")
    assert total["counters"]["noop_ns"] == 100.0
    line = next(line for line in bench.render(report).splitlines()
                if line.startswith("total"))
    assert f"{total['counters']['off_overhead_pct']:.3f}" in line.split()
