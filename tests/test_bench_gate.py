"""The one bench gate: ``repro.bench.gate`` behind
``benchmarks/check_regression.py``, against ``benchmarks/baseline.json``."""

from __future__ import annotations

import copy
import json
import pathlib
import subprocess
import sys

import pytest

from repro.bench import gate

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = json.loads((ROOT / "benchmarks" / "baseline.json").read_text())
GATE_SCRIPT = ROOT / "benchmarks" / "check_regression.py"


def passing_value(rule: dict) -> float:
    kind, bound = next(iter(rule.items()))
    return bound / 2 if kind == "max" else bound


def synthetic_report(baseline: dict) -> dict:
    """One row per baselined row, every metric exactly on its rule."""
    rows = []
    for bench, expected in baseline.items():
        for name, metrics in expected.items():
            rows.append({
                "bench": bench, "name": name,
                "counters": {metric: passing_value(rule)
                             for metric, rule in metrics.items()
                             if metric != "seconds"},
                "seconds": passing_value(metrics.get("seconds",
                                                     {"base": 0.5})),
                "digest": "0123456789abcdef", "ok": True})
    return {"schema": "repro-bench/2", "rows": rows}


def row_of(report: dict, bench: str, name: str) -> dict:
    return next(row for row in report["rows"]
                if (row["bench"], row["name"]) == (bench, name))


def test_synthetic_report_from_the_baseline_passes():
    assert gate(synthetic_report(BASELINE), BASELINE) == []


def set_counter(bench, name, metric, value):
    def mutate(report):
        row_of(report, bench, name)["counters"][metric] = value
    return mutate


def set_seconds(bench, name, value):
    def mutate(report):
        row_of(report, bench, name)["seconds"] = value
    return mutate


@pytest.mark.parametrize("mutate, expected", [
    # eq: a comment-only edit must issue no query at all
    (set_counter("incremental", "splay/comment", "queries", 1),
     "incremental/splay/comment queries"),
    # min: a warm body edit must save queries over a cold build
    (set_counter("modules", "splay+body", "saved_queries", 0),
     "modules/splay+body saved_queries"),
    # max: the disabled-tracer overhead must stay strictly below 2%
    (set_counter("obs", "total", "off_overhead_pct", 2.0),
     "obs/total off_overhead_pct"),
    # counter base: max(390 * 1.25, 390 + 5) = 487.5
    (set_counter("figure6", "splay", "queries_issued", 488),
     "figure6/splay queries_issued"),
    # small counter base: the +5 slack, max(0 * 1.25, 0 + 5)
    (set_counter("incremental", "tsc-checker+body", "queries", 6),
     "incremental/tsc-checker+body queries"),
    # seconds base: x4
    (set_seconds("figure6", "splay", 5.35 * 4 + 0.01),
     "figure6/splay seconds"),
    # latency base: x4, throughput base: /4
    (set_counter("serve", "total", "p99_ms", 13837.0 * 4 + 1),
     "serve/total p99_ms"),
    (set_counter("serve", "total", "throughput_cps", 0.56 / 4 - 0.01),
     "serve/total throughput_cps"),
])
def test_each_rule_kind_fails_naming_bench_row_and_metric(mutate, expected):
    report = synthetic_report(BASELINE)
    mutate(report)
    failures = gate(report, BASELINE)
    assert len(failures) == 1 and failures[0].startswith(expected), failures


@pytest.mark.parametrize("value", [487.5, 487])
def test_counter_base_bound_is_inclusive(value):
    report = synthetic_report(BASELINE)
    set_counter("figure6", "splay", "queries_issued", value)(report)
    assert gate(report, BASELINE) == []


def test_digest_mismatch_inside_a_group_fails():
    report = synthetic_report(BASELINE)
    row_of(report, "store", "splay/warm")["digest"] = "fedcba9876543210"
    failures = gate(report, BASELINE)
    assert len(failures) == 1, failures
    assert failures[0].startswith("store/splay: verdict digests differ")
    assert "splay/warm" in failures[0]


def test_rows_of_different_inputs_may_differ():
    report = synthetic_report(BASELINE)
    row_of(report, "incremental", "splay+body")["digest"] = "fedcba9876543210"
    assert gate(report, BASELINE) == []


def test_unsafe_row_fails():
    report = synthetic_report(BASELINE)
    row_of(report, "store", "splay/warm")["ok"] = False
    failures = gate(report, BASELINE)
    assert failures == ["store/splay/warm: not ok (unsafe, or the step "
                        "failed)"]


def test_missing_row_fails():
    report = synthetic_report(BASELINE)
    report["rows"].remove(row_of(report, "obs", "total"))
    assert gate(report, BASELINE) == ["obs/total: missing from the report"]


def test_missing_metric_fails():
    report = synthetic_report(BASELINE)
    del row_of(report, "modules", "splay+sig")["counters"]["rechecked"]
    assert gate(report, BASELINE) == ["modules/splay+sig rechecked: missing"]


def test_unknown_rule_kind_is_rejected():
    baseline = copy.deepcopy(BASELINE)
    baseline["smt"]["splay"]["sat_calls"] = {"around": 320}
    with pytest.raises(ValueError, match="around"):
        gate(synthetic_report(BASELINE), baseline)


def test_bench_report_passes_the_gate_end_to_end(tmp_path, capsys):
    """`repro bench figure6 --only tsc-checker` writes a report the gate
    script accepts against the baseline filtered to that port's rows."""
    from repro.__main__ import main

    out = tmp_path / "report.json"
    assert main(["bench", "figure6", "--only", "tsc-checker",
                 "--out", str(out)]) == 0
    assert "tsc-checker" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert [row["name"] for row in report["rows"]] == ["tsc-checker"]
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"figure6": {
        name: rules for name, rules in BASELINE["figure6"].items()
        if name.split("/")[0] == "tsc-checker"}}))
    gated = subprocess.run(
        [sys.executable, str(GATE_SCRIPT), str(out), str(baseline)],
        capture_output=True, text=True, timeout=120)
    assert gated.returncode == 0, gated.stderr
    assert "no regressions" in gated.stdout

    report["rows"][0]["counters"]["giveups"] = 1
    out.write_text(json.dumps(report))
    gated = subprocess.run(
        [sys.executable, str(GATE_SCRIPT), str(out), str(baseline)],
        capture_output=True, text=True, timeout=120)
    assert gated.returncode == 1
    assert "figure6/tsc-checker giveups" in gated.stderr


def test_project_digest_is_path_independent(tmp_path):
    """Two copies of one project at different paths have one verdict
    digest, diagnostics included (the broken module's spans carry its
    filename)."""
    import shutil

    from repro.bench import benchmarks_dir, digest, verdict
    from repro.core.session import Session

    source = benchmarks_dir() / "modules" / "splay"
    digests = set()
    for copy_root in (tmp_path / "a", tmp_path / "b" / "nested" / "deeper"):
        project = copy_root / "splay"
        shutil.copytree(source, project)
        (project / "broken.rsc").write_text(
            'import {missing} from "./nowhere";\n'
            "spec f :: (x: number) => {v: number | v > x};\n"
            "function f(x) { return x; }\n")
        result = Session().check_project(project)
        assert not result.ok
        rendered = json.dumps(verdict(result))
        assert str(tmp_path) not in rendered
        assert '"broken.rsc"' in rendered
        digests.add(digest(verdict(result)))
    assert len(digests) == 1
