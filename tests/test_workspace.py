"""The incremental workspace: document lifecycle, artifact caching,
warm-started fixpoint soundness (fixtures + every benchmark port), and the
back-compat facades around it."""

import pathlib
import warnings

import pytest

from repro import CheckConfig, Session, Workspace
from repro import bench
from repro.smt.solver import Solver

PROGRAMS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "programs"

SAFE_TWO_DECLS = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }

spec total :: (a: number[]) => number;
function total(a) {
  var n = 0;
  for (var i = 0; i < a.length; i++) { n = n + a[i]; }
  return n;
}
"""

UNSAFE_TWO_DECLS = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }

spec first :: (a: {v: number[] | 0 < len(v)}) => number;
function first(a) { return a[0]; }
"""

CLASS_FIXTURE = """
type nat = {v: number | 0 <= v};
class Counter {
  immutable limit : {v: number | 0 < v};
  count : {v: nat | v <= this.limit};
  constructor(limit: {v: number | 0 < v}) {
    this.limit = limit; this.count = 0;
  }
  bump() : void {
    if (this.count < this.limit) { this.count = this.count + 1; }
  }
  remaining() : number {
    return this.limit - this.count;
  }
}

spec drain :: (c: Counter) => number;
function drain(c) {
  var left = c.remaining();
  return left;
}
"""

#: (name, source, function to edit) — the warm == cold property is asserted
#: for each, alongside every benchmark port.
FIXTURES = [
    ("safe", SAFE_TWO_DECLS, "total"),
    ("unsafe", UNSAFE_TWO_DECLS, "get"),
    ("classes", CLASS_FIXTURE, "drain"),
]


def _diag_keys(result):
    return [(d.code, d.span.line, d.span.col, d.message)
            for d in result.diagnostics]


def _solution_text(result):
    return {kappa: [str(q) for q in quals]
            for kappa, quals in result.kappa_solution.items()}


def _assert_warm_matches_cold(source: str, edited: str, uri: str):
    """Open -> edit -> warm re-check must equal a cold check of the edit,
    with strictly fewer solver queries.  Returns (warm, cold) results."""
    workspace = Workspace(CheckConfig())
    workspace.open(uri, source)
    warm = workspace.update(uri, edited)
    cold = Session().check_source(edited, uri)
    assert warm.solve_stats.warm_starts == 1
    assert _diag_keys(warm) == _diag_keys(cold)
    assert _solution_text(warm) == _solution_text(cold)
    assert warm.stats.queries < cold.stats.queries
    return warm, cold


class TestWarmStartSoundness:
    @pytest.mark.parametrize("name,source,target",
                             FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_fixture_edit_warm_equals_cold(self, name, source, target):
        edited = bench.edit_function_body(source, target)
        warm, _cold = _assert_warm_matches_cold(source, edited, f"{name}.rsc")
        assert warm.solve_stats.declarations_reused > 0

    @pytest.mark.parametrize("name", bench.BENCHMARKS)
    def test_benchmark_edit_warm_equals_cold(self, name):
        source = (PROGRAMS_DIR / f"{name}.rsc").read_text()
        edited = bench.edit_function_body(source, bench.EDIT_TARGETS[name])
        warm, cold = _assert_warm_matches_cold(source, edited, f"{name}.rsc")
        assert warm.ok and cold.ok, "benchmark must still verify after edit"
        assert warm.solve_stats.declarations_rechecked == 1
        assert warm.solve_stats.declarations_reused > 0

    def test_comment_only_edit_issues_no_queries(self):
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        result = workspace.update("a.rsc",
                                  SAFE_TWO_DECLS + "\n// a comment\n")
        assert result.ok
        assert result.stats.queries == 0
        assert result.solve_stats.declarations_rechecked == 0
        assert result.solve_stats.declarations_reused == 2

    def test_signature_change_falls_back_to_cold(self):
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        edited = SAFE_TWO_DECLS.replace(
            "spec total :: (a: number[]) => number;",
            "spec total :: (a: number[]) => {v: number | true};")
        result = workspace.update("a.rsc", edited)
        assert result.solve_stats.warm_starts == 0
        cold = Session().check_source(edited, "a.rsc")
        assert _diag_keys(result) == _diag_keys(cold)
        assert _solution_text(result) == _solution_text(cold)

    def test_declaration_added_falls_back_to_cold(self):
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        edited = SAFE_TWO_DECLS + "\nfunction extra() { return 1; }\n"
        result = workspace.update("a.rsc", edited)
        assert result.solve_stats.warm_starts == 0

    def test_duplicate_declaration_edit_is_not_shadowed(self):
        """Two same-named functions share one partition; editing the FIRST
        must dirty it even though the second's fingerprint is unchanged."""
        duplicated = """
spec g :: (x: number) => {v: number | 0 < v};
function g(x) { return 1; }
function g(x) { return 1; }
"""
        workspace = Workspace(CheckConfig())
        first = workspace.open("d.rsc", duplicated)
        edited = duplicated.replace("function g(x) { return 1; }",
                                    "function g(x) { return 0 - 1; }", 1)
        warm = workspace.update("d.rsc", edited)
        cold = Session().check_source(edited, "d.rsc")
        assert not cold.ok
        assert _diag_keys(warm) == _diag_keys(cold)
        assert first.ok and not warm.ok

    def test_unsafe_stays_unsafe_through_warm_recheck(self):
        workspace = Workspace(CheckConfig())
        first = workspace.open("u.rsc", UNSAFE_TWO_DECLS)
        assert not first.ok
        edited = bench.edit_function_body(UNSAFE_TWO_DECLS, "first")
        warm = workspace.update("u.rsc", edited)
        assert not warm.ok
        assert warm.solve_stats.warm_starts == 1
        # the reused partition's diagnostics survive with their codes
        assert any(d.code == "RSC-BND-001" for d in warm.diagnostics)


class TestDocumentLifecycle:
    def test_open_update_close_diagnostics(self):
        workspace = Workspace(CheckConfig())
        result = workspace.open("a.rsc", SAFE_TWO_DECLS)
        assert result.ok
        assert workspace.documents() == ["a.rsc"]
        assert workspace.diagnostics("a.rsc") == []
        workspace.close("a.rsc")
        assert workspace.documents() == []
        with pytest.raises(KeyError):
            workspace.diagnostics("a.rsc")
        with pytest.raises(KeyError):
            workspace.update("a.rsc", SAFE_TWO_DECLS)
        with pytest.raises(KeyError):
            workspace.close("a.rsc")

    def test_open_reads_path_when_no_text(self, tmp_path):
        path = tmp_path / "a.rsc"
        path.write_text(SAFE_TWO_DECLS)
        workspace = Workspace(CheckConfig())
        assert workspace.open(str(path)).ok
        assert workspace.result(str(path)).filename == str(path)

    def test_revert_served_from_artifact_cache(self):
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        edited = bench.edit_function_body(SAFE_TWO_DECLS, "total")
        workspace.update("a.rsc", edited)
        checks_before = workspace.checks_run
        reverted = workspace.update("a.rsc", SAFE_TWO_DECLS)
        assert workspace.artifact_cache_hits == 1
        assert workspace.checks_run == checks_before
        assert reverted.ok
        assert reverted.stats.queries == 0
        assert reverted.solve_stats.declarations_reused == 2
        # ...and the next edit warm-starts from the reverted snapshot
        warm = workspace.update("a.rsc", edited)
        assert workspace.artifact_cache_hits == 2

    def test_document_cache_limit_evicts_old_snapshots(self):
        workspace = Workspace(CheckConfig(document_cache_limit=1))
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        edited = bench.edit_function_body(SAFE_TWO_DECLS, "total")
        workspace.update("a.rsc", edited)
        # the original snapshot was evicted (limit 1), so reverting re-checks
        workspace.update("a.rsc", SAFE_TWO_DECLS)
        assert workspace.artifact_cache_hits == 0

    def test_parse_error_document_recovers(self):
        workspace = Workspace(CheckConfig())
        broken = workspace.open("a.rsc", "function f( {")
        assert not broken.ok
        assert broken.diagnostics[0].code == "RSC-PARSE-001"
        fixed = workspace.update("a.rsc", SAFE_TWO_DECLS)
        assert fixed.ok
        assert fixed.solve_stats.warm_starts == 0  # nothing to warm from

    def test_transient_parse_error_does_not_lose_warm_state(self):
        """An intermediate keystroke that fails to parse must not force the
        next successful check back to a cold solve (editing-loop property)."""
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        mid_edit = workspace.update("a.rsc", SAFE_TWO_DECLS + "\nfunction (")
        assert not mid_edit.ok
        edited = bench.edit_function_body(SAFE_TWO_DECLS, "total")
        warm = workspace.update("a.rsc", edited)
        assert warm.solve_stats.warm_starts == 1
        assert warm.solve_stats.declarations_reused == 1
        cold = Session().check_source(edited, "a.rsc")
        assert _diag_keys(warm) == _diag_keys(cold)
        assert _solution_text(warm) == _solution_text(cold)

    def test_solver_shared_across_documents(self):
        workspace = Workspace(CheckConfig())
        first = workspace.open("a.rsc", SAFE_TWO_DECLS)
        second = workspace.open("b.rsc", SAFE_TWO_DECLS)
        assert second.stats.cache_hits > 0
        assert second.stats.queries < first.stats.queries


class TestFacades:
    def test_session_is_workspace_facade(self):
        session = Session()
        assert session.solver is session.workspace.solver
        assert session.check_source(SAFE_TWO_DECLS).ok
        assert session.files_checked == 1

    def test_session_reset_cache_uses_public_solver_api(self):
        session = Session()
        session.check_source(SAFE_TWO_DECLS)
        assert session.cache_size > 0
        session.reset_cache()
        assert session.cache_size == 0

    def test_solver_clear_cache_is_public(self):
        solver = Solver()
        from repro.logic.terms import BoolLit
        solver.is_satisfiable(BoolLit(True))
        assert solver.cache_size == 1
        solver.clear_cache()
        assert solver.cache_size == 0
        assert solver.stats.queries == 1  # statistics survive

    def test_session_checks_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert Session().check_source(SAFE_TWO_DECLS).ok


class TestResultCounters:
    def test_solve_stats_counters_serialised(self):
        workspace = Workspace(CheckConfig())
        workspace.open("a.rsc", SAFE_TWO_DECLS)
        edited = bench.edit_function_body(SAFE_TWO_DECLS, "total")
        warm = workspace.update("a.rsc", edited)
        payload = warm.to_dict()["solve_stats"]
        assert payload["warm_starts"] == 1
        assert payload["declarations_rechecked"] == 1
        assert payload["declarations_reused"] == 1

    def test_invalid_document_cache_limit_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig(document_cache_limit=0)
