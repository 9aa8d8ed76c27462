"""End-to-end tests for the persistent artifact store: zero-SAT replay
across fresh sessions and processes, keyed invalidation, corruption
fallback, and concurrent writers."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import CheckConfig, Session
from repro.core.config import SolverOptions
from repro.project import ModuleGraph, check_project
from repro.store import open_store

SRC = pathlib.Path(__file__).parent.parent / "src"

SAFE = """
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

UNSAFE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""

TYPES = 'export type NEArray<T> = {v: T[] | 0 < len(v)};\n'

LIB = '''import {NEArray} from "./types";
export spec min :: (xs: NEArray<number>) => number;
export function min(xs) {
  var best = xs[0];
  for (var i = 1; i < xs.length; i++) {
    if (xs[i] < best) { best = xs[i]; }
  }
  return best;
}
'''

MAIN = '''import {min} from "./lib";
spec main :: () => void;
function main() {
  var xs = new Array(4);
  var m = min(xs);
}
'''


def _config(tmp_path, **kwargs):
    return CheckConfig(store_path=str(tmp_path / "store"), **kwargs)


def _diag_keys(result):
    return [(d.code, d.span.line, d.span.col, d.message)
            for d in result.diagnostics]


def _solution_text(result):
    return {kappa: [str(q) for q in quals]
            for kappa, quals in result.kappa_solution.items()}


def _fresh_check(config, source, uri="store.rsc"):
    """One cold-process-equivalent check: a brand-new session, sharing
    nothing with previous runs except the on-disk store."""
    return Session(config).check_source(source, uri)


def assert_zero_sat_replay(cold, warm):
    """The ISSUE acceptance bar: a store-hit run issues NO fixpoint
    queries and NO SAT searches, and its output is byte-identical."""
    assert warm.solve_stats.queries_issued == 0
    assert warm.solve_stats.warm_starts == 1
    assert warm.stats.queries == 0
    assert warm.stats.sat_calls == 0
    assert _diag_keys(warm) == _diag_keys(cold)
    assert _solution_text(warm) == _solution_text(cold)


class TestSingleFileReplay:
    @pytest.mark.parametrize("source", [SAFE, UNSAFE],
                             ids=["safe", "unsafe"])
    def test_cold_then_store_warm_is_zero_sat(self, tmp_path, source):
        config = _config(tmp_path)
        cold = _fresh_check(config, source)
        assert cold.stats.queries > 0
        warm = _fresh_check(config, source)
        assert_zero_sat_replay(cold, warm)

    def test_store_counters_account_the_replay(self, tmp_path):
        config = _config(tmp_path)
        session = Session(config)
        session.check_source(SAFE, "a.rsc")
        assert session.store.writes >= 2  # solution + verdicts
        warm = Session(config)
        warm.check_source(SAFE, "a.rsc")
        assert warm.store.hits >= 2
        assert warm.store.writes == 0  # nothing new to persist

    def test_edit_invalidates_by_content_hash(self, tmp_path):
        config = _config(tmp_path)
        _fresh_check(config, SAFE)
        edited = SAFE.replace("n = n + a[i]", "n = n + a[i] + 0")
        recheck = _fresh_check(config, edited)
        assert recheck.stats.queries > 0  # different content, no replay
        # ... but the original is still served untouched.
        warm = _fresh_check(config, SAFE)
        assert warm.stats.queries == 0

    def test_solver_option_change_invalidates_memos(self, tmp_path):
        _fresh_check(_config(tmp_path), SAFE)
        other = _config(tmp_path,
                        solver=SolverOptions(max_theory_iterations=2))
        recheck = _fresh_check(other, SAFE)
        assert recheck.stats.queries > 0  # config fingerprint differs

    def test_readonly_mode_replays_but_never_writes(self, tmp_path):
        _fresh_check(_config(tmp_path), SAFE)
        readonly = Session(_config(tmp_path, store_mode="readonly"))
        warm = readonly.check_source(SAFE, "store.rsc")
        assert warm.stats.queries == 0
        assert readonly.store.writes == 0
        # A miss under readonly recomputes and stays unpersisted.
        miss = Session(_config(tmp_path, store_mode="readonly"))
        fresh = miss.check_source(UNSAFE, "store.rsc")
        assert fresh.stats.queries > 0
        assert miss.store.writes == 0
        assert Session(
            _config(tmp_path)).check_source(UNSAFE).stats.queries > 0

    def test_store_off_means_no_files(self, tmp_path):
        config = _config(tmp_path, store_mode="off")
        _fresh_check(config, SAFE)
        assert not (tmp_path / "store").exists()


class TestCorruptionFallback:
    def _entries(self, tmp_path):
        return sorted((tmp_path / "store").rglob("*.json"))

    @pytest.mark.parametrize("garbage", [
        b"", b"not json at all", b'{"schema": 999, "kind": "x", "data": 1}',
        b'{"truncat', b"\x00\x01\x02",
        # a real entry scrambled at equal length: only the codec catches it
        pytest.param(lambda raw: b"\xffCORRUPT" + raw[8:], id="same-length"),
    ])
    def test_garbage_entries_fall_back_to_recompute(self, tmp_path, garbage):
        config = _config(tmp_path)
        cold = _fresh_check(config, SAFE)
        entries = self._entries(tmp_path)
        assert entries
        for path in entries:
            path.write_bytes(garbage(path.read_bytes()) if callable(garbage)
                             else garbage)
        recheck = _fresh_check(config, SAFE)
        assert recheck.stats.queries > 0  # corruption is a miss, not a crash
        assert _diag_keys(recheck) == _diag_keys(cold)
        assert _solution_text(recheck) == _solution_text(cold)
        # The recompute repaired the store in passing.
        assert _fresh_check(config, SAFE).stats.queries == 0

    def test_truncated_entries_fall_back_to_recompute(self, tmp_path):
        config = _config(tmp_path)
        cold = _fresh_check(config, SAFE)
        for path in self._entries(tmp_path):
            path.write_bytes(path.read_bytes()[:-20])
        recheck = _fresh_check(config, SAFE)
        assert recheck.stats.queries > 0
        assert _diag_keys(recheck) == _diag_keys(cold)


class TestProjectReplay:
    def _write(self, root):
        root.mkdir(exist_ok=True)
        (root / "types.rsc").write_text(TYPES)
        (root / "lib.rsc").write_text(LIB)
        (root / "main.rsc").write_text(MAIN)
        return root

    def test_project_cold_then_warm_is_zero_sat(self, tmp_path):
        project = self._write(tmp_path / "proj")
        config = _config(tmp_path)
        cold = check_project(project, config=config)
        assert cold.stats.queries > 0
        warm = check_project(project, config=config)
        assert warm.stats.queries == 0
        assert warm.stats.sat_calls == 0
        assert [_diag_keys(r) for r in warm.results] == \
            [_diag_keys(r) for r in cold.results]
        assert [_solution_text(r) for r in warm.results] == \
            [_solution_text(r) for r in cold.results]

    def test_body_edit_invalidates_only_that_module(self, tmp_path):
        project = self._write(tmp_path / "proj")
        config = _config(tmp_path)
        check_project(project, config=config)
        # Edit lib's *body*: its own artifacts are stale, but its interface
        # summary is unchanged, so dependents' document texts — and store
        # keys — are untouched.
        (project / "lib.rsc").write_text(
            LIB.replace("var best = xs[0];",
                        "var best = xs[0]; var n = xs.length;"))
        warm = check_project(project, config=config)
        by_name = {pathlib.Path(r.filename).name: r for r in warm.results}
        assert by_name["lib.rsc"].stats.queries > 0
        assert by_name["types.rsc"].stats.queries == 0
        assert by_name["main.rsc"].stats.queries == 0

    def test_session_check_project_opens_one_store(self, tmp_path,
                                                   monkeypatch):
        # The project runs on the calling session: its store is the only
        # one opened, and it sees the whole project's store traffic.
        from repro.store import ArtifactStore
        opened = []
        init = ArtifactStore.__init__

        def counting_init(store, *args, **kwargs):
            opened.append(store)
            init(store, *args, **kwargs)
        monkeypatch.setattr(ArtifactStore, "__init__", counting_init)
        modules = SRC.parent / "benchmarks" / "modules" / "splay"
        session = Session(_config(tmp_path))
        result = session.check_project(modules)
        assert result.ok
        assert opened == [session.store]
        counters = session.store.counters()
        assert counters["misses"] > 0 and counters["writes"] > 0
        assert session.checks_run == result.num_modules
        assert session.documents() == []
        warm = Session(_config(tmp_path))
        assert warm.check_project(modules).stats.queries == 0
        assert warm.store.counters()["hits"] > 0

    def test_serve_project_runs_on_the_tenant_workspace(self, tmp_path,
                                                        monkeypatch):
        # project_open checks the modules in the tenant's own workspace:
        # one store, and the tenant's stats count the build.
        from repro.client import Client
        from repro.store import ArtifactStore
        opened = []
        init = ArtifactStore.__init__

        def counting_init(store, *args, **kwargs):
            opened.append(store)
            init(store, *args, **kwargs)
        monkeypatch.setattr(ArtifactStore, "__init__", counting_init)
        modules = SRC.parent / "benchmarks" / "modules" / "splay"
        client = Client.local(_config(tmp_path))
        assert client.project_open(str(modules)).ok
        assert len(opened) == 1
        tenant = client.stats().tenants["default"]
        assert tenant["checks_run"] == 4
        assert tenant["solver"]["queries"] > 0
        assert tenant["store"]["writes"] > 0
        assert tenant["open_documents"] == 4
        # Opening another project closes the previous one's modules.
        other = tmp_path / "other"
        other.mkdir()
        (other / "a.rsc").write_text("export type t = number;\n")
        assert client.project_open(str(other)).ok
        assert client.stats().tenants["default"]["open_documents"] == 1

    def test_summaries_survive_solver_option_changes(self, tmp_path):
        # Module summaries are keyed on (path, source) only; flipping a
        # solver option invalidates verdict memos but not the interface
        # summaries the graph is built from.
        project = self._write(tmp_path / "proj")
        check_project(project, config=_config(tmp_path))
        other = _config(tmp_path,
                        solver=SolverOptions(max_theory_iterations=2))
        store = open_store(other)
        graph = ModuleGraph.from_root(project, store=store)
        assert store.hits == len(graph.modules) == 3
        assert store.misses == 0

    def test_store_loaded_graph_matches_parsed_graph(self, tmp_path):
        project = self._write(tmp_path / "proj")
        config = _config(tmp_path)
        parsed = ModuleGraph.from_root(project, store=open_store(config))
        loaded = ModuleGraph.from_root(project, store=open_store(config))
        for path in parsed.modules:
            assert parsed.document_text(path) == loaded.document_text(path)


class TestCrossProcess:
    def _run(self, args, **kwargs):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_STORE", None)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, **kwargs)

    def test_second_process_replays_with_zero_sat(self, tmp_path):
        source = tmp_path / "prog.rsc"
        source.write_text(SAFE)
        store = str(tmp_path / "store")
        runs = [self._run(["check", "--store", store, "--format", "json",
                           str(source)]) for _ in range(2)]
        assert all(run.returncode == 0 for run in runs), runs
        cold, warm = (json.loads(run.stdout) for run in runs)
        assert cold["solver_stats"]["queries"] > 0
        assert warm["solver_stats"]["queries"] == 0
        assert warm["solver_stats"]["sat_calls"] == 0
        def verdicts(payload):
            # Everything the user sees, minus run metrics (timings, query
            # counters) that legitimately differ between cold and warm.
            return [{k: v for k, v in f.items()
                     if k in ("file", "status", "ok", "diagnostics",
                              "num_constraints", "num_implications",
                              "num_obligations_checked")}
                    for f in payload["files"]]

        assert verdicts(warm) == verdicts(cold)
        assert warm["status"] == cold["status"]

    def test_repro_store_env_var_is_honoured(self, tmp_path):
        source = tmp_path / "prog.rsc"
        source.write_text(SAFE)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_STORE=str(tmp_path / "store"))
        for _ in range(2):
            run = subprocess.run(
                [sys.executable, "-m", "repro", "check", "--format", "json",
                 str(source)],
                capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["solver_stats"]["queries"] == 0

    def test_concurrent_writers_do_not_corrupt_the_store(self, tmp_path):
        source = tmp_path / "prog.rsc"
        source.write_text(SAFE)
        store = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_STORE", None)
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "check", "--store", store,
             str(source)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
            for _ in range(2)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
        # Whatever interleaving happened, the store is intact: no stray
        # tmp files, and a third process gets a clean zero-query replay.
        assert not list(pathlib.Path(store).rglob("*.tmp"))
        warm = _fresh_check(CheckConfig(store_path=store), SAFE, "prog.rsc")
        assert warm.stats.queries == 0

    def test_cache_cli_stats_gc_clear(self, tmp_path):
        source = tmp_path / "prog.rsc"
        source.write_text(SAFE)
        store = str(tmp_path / "store")
        assert self._run(["check", "--store", store,
                          str(source)]).returncode == 0
        stats = self._run(["cache", "stats", "--store", store,
                           "--format", "json"])
        assert stats.returncode == 0, stats.stderr
        payload = json.loads(stats.stdout)
        assert payload["total_entries"] >= 2
        gc = self._run(["cache", "gc", "--store", store, "--max-bytes", "0"])
        assert gc.returncode == 0, gc.stderr
        assert json.loads(self._run(
            ["cache", "stats", "--store", store, "--format", "json"]
        ).stdout)["total_entries"] == 0
        assert self._run(["cache", "clear", "--store",
                          store]).returncode == 0
