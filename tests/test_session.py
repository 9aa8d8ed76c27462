"""The session-based pipeline API: stages, timings, cache reuse, config."""

import concurrent.futures
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import CheckConfig, Session, SolverOptions
from repro.core.result import SolveStats
from repro.core.session import ConstraintsStage, ParseStage, SolveStage, SsaStage
from repro.errors import Severity
from repro.node import FrozenInstanceError, fields
from repro.smt.solver import SolverStats

SAFE_SOURCE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

UNSAFE_SOURCE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""


class TestStagedPipeline:
    def test_stages_chain_and_types(self):
        session = Session()
        parsed = session.parse(SAFE_SOURCE, "a.rsc")
        assert isinstance(parsed, ParseStage) and parsed.ok
        ssa = session.ssa(parsed)
        assert isinstance(ssa, SsaStage)
        assert "get" in ssa.functions
        cons = session.constraints(ssa)
        assert isinstance(cons, ConstraintsStage)
        assert cons.num_implications > 0
        solved = session.solve(cons)
        assert isinstance(solved, SolveStage)
        result = session.verify(solved)
        assert result.ok
        assert result.filename == "a.rsc"

    def test_constraints_accepts_parse_stage_directly(self):
        session = Session()
        cons = session.constraints(session.parse(SAFE_SOURCE))
        assert session.verify(session.solve(cons)).ok

    def test_per_stage_timings_recorded(self):
        session = Session()
        result = session.check_source(SAFE_SOURCE)
        timings = result.timings
        assert timings.parse > 0
        # check_source skips the inspectable ssa stage (the checker re-derives
        # SSA itself), so its time is only recorded when driven explicitly
        assert timings.ssa == 0
        assert timings.constraints > 0
        assert timings.total == pytest.approx(result.time_seconds)
        payload = timings.to_dict()
        assert set(payload) == {"parse", "ssa", "constraints", "solve",
                                "verify", "total"}

    def test_explicit_ssa_stage_records_its_time(self):
        session = Session()
        ssa = session.ssa(session.parse(SAFE_SOURCE))
        assert ssa.timings.ssa > 0

    def test_ssa_stage_refuses_failed_parse(self):
        session = Session()
        parsed = session.parse("function f( {")
        assert not parsed.ok
        with pytest.raises(ValueError):
            session.ssa(parsed)


class TestParseErrors:
    def test_parse_error_carries_filename_and_time(self):
        result = Session().check_source("function f( {", filename="oops.rsc")
        assert not result.ok
        assert result.time_seconds > 0
        assert result.filename == "oops.rsc"
        [diag] = result.diagnostics
        assert diag.code == "RSC-PARSE-001"
        assert diag.span.filename == "oops.rsc"

class TestSolverReuse:
    def test_cache_reused_across_files(self):
        session = Session()
        first = session.check_source(SAFE_SOURCE, "a.rsc")
        second = session.check_source(SAFE_SOURCE, "b.rsc")
        assert first.ok and second.ok
        assert first.stats.queries > 0
        assert second.stats.cache_hits > 0
        assert second.stats.queries < first.stats.queries

    def test_check_files_reports_batch_cache_hits(self, tmp_path):
        paths = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.rsc"
            path.write_text(SAFE_SOURCE)
            paths.append(path)
        batch = Session().check_files(paths)
        assert batch.ok
        assert batch.num_files == 3
        assert batch.cache_hits > 0
        assert batch.stats.cache_hits == batch.cache_hits

    def test_parallel_jobs_produce_ordered_results(self, tmp_path):
        paths = []
        for index, source in enumerate([SAFE_SOURCE, UNSAFE_SOURCE, SAFE_SOURCE]):
            path = tmp_path / f"f{index}.rsc"
            path.write_text(source)
            paths.append(path)
        batch = Session().check_files(paths, jobs=2)
        assert [r.filename for r in batch.results] == [str(p) for p in paths]
        assert [r.ok for r in batch.results] == [True, False, True]

    def test_check_project_globs_directory(self, tmp_path):
        (tmp_path / "nested").mkdir()
        (tmp_path / "a.rsc").write_text(SAFE_SOURCE)
        (tmp_path / "nested" / "b.rsc").write_text(UNSAFE_SOURCE)
        (tmp_path / "ignored.txt").write_text("not a benchmark")
        batch = Session().check_project(tmp_path)
        assert batch.num_files == 2
        assert not batch.ok

    def test_unreadable_file_becomes_internal_diagnostic(self, tmp_path):
        batch = Session().check_files([tmp_path / "missing.rsc"])
        assert not batch.ok
        [diag] = batch.results[0].diagnostics
        assert diag.code == "RSC-INT-001"


def _verdicts(batch):
    """What a batch check decided, without its timings."""
    return [(r.filename, r.status, [d.to_dict() for d in r.diagnostics],
             {k: sorted(str(q) for q in v)
              for k, v in sorted(r.kappa_solution.items())})
            for r in batch.results]


class _NoProcesses:
    """A process pool the environment refuses to start."""

    def __init__(self, max_workers):
        raise OSError("cannot start worker processes")


class _BrokenPool:
    """A process pool whose workers die before answering."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        raise BrokenProcessPool("a worker died")


class TestParallelFallback:
    """``check_files(jobs=N)`` checks on a process pool, imported only when
    a pool is wanted; when none can run it falls back to the sequential
    shared-cache path with the same verdicts."""

    @pytest.fixture
    def paths(self, tmp_path):
        paths = []
        for index, source in enumerate([SAFE_SOURCE, UNSAFE_SOURCE,
                                        SAFE_SOURCE]):
            path = tmp_path / f"f{index}.rsc"
            path.write_text(source)
            paths.append(path)
        return paths

    @pytest.mark.parametrize("pool", [_NoProcesses, _BrokenPool],
                             ids=["OSError", "BrokenProcessPool"])
    def test_unusable_pool_falls_back_to_sequential(self, paths, pool,
                                                     monkeypatch):
        sequential = Session().check_files(paths)
        started = []

        def start(max_workers):
            started.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", start)
        session = Session()
        fallback = session.check_files(paths, jobs=2)
        assert started == [2]
        assert _verdicts(fallback) == _verdicts(sequential)
        assert session.checks_run == len(paths)
        assert fallback.stats.queries == sequential.stats.queries

    def test_parallel_results_equal_sequential(self, paths):
        sequential = Session().check_files(paths)
        parallel = Session().check_files(paths, jobs=2)
        assert _verdicts(parallel) == _verdicts(sequential)


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CheckConfig(max_fixpoint_iterations=0)
        with pytest.raises(ValueError):
            CheckConfig(qualifier_set="everything")
        with pytest.raises(ValueError):
            CheckConfig(jobs=0)
        with pytest.raises(ValueError):
            SolverOptions(max_theory_iterations=0)

    def test_config_is_immutable_but_derivable(self):
        config = CheckConfig()
        with pytest.raises(FrozenInstanceError):
            config.jobs = 4
        derived = config.with_options(jobs=4, warnings_as_errors=True)
        assert derived.jobs == 4 and derived.warnings_as_errors
        assert config.jobs == 1

    def test_warnings_as_errors_changes_verdict(self):
        source = "function untyped(x) { return x; }"
        relaxed = Session().check_source(source)
        assert relaxed.ok and relaxed.warnings
        strict = Session(CheckConfig(warnings_as_errors=True)).check_source(source)
        assert not strict.ok
        assert all(d.severity is Severity.ERROR for d in strict.diagnostics)

    def test_harvested_qualifier_set_still_solves_annotated_code(self):
        # every qualifier needed by SAFE_SOURCE appears in its annotations,
        # so the harvested-only pool suffices
        result = Session(CheckConfig(qualifier_set="harvested")).check_source(
            SAFE_SOURCE)
        assert result.ok

    def test_solver_options_forwarded(self):
        session = Session(CheckConfig(solver=SolverOptions(
            max_theory_iterations=7, cache_size_limit=0)))
        assert session.solver.max_theory_iterations == 7
        assert session.solver.cache_size_limit == 0


class TestResultSerialisation:
    def test_to_json_round_trips(self):
        result = Session().check_source(UNSAFE_SOURCE, "u.rsc")
        payload = json.loads(result.to_json())
        assert payload["status"] == "UNSAFE"
        assert payload["file"] == "u.rsc"
        codes = [d["code"] for d in payload["diagnostics"]]
        assert "RSC-BND-001" in codes
        spans = [d["span"] for d in payload["diagnostics"]]
        assert all(s["file"] == "u.rsc" for s in spans)

    def test_batch_to_json(self, tmp_path):
        path = tmp_path / "a.rsc"
        path.write_text(SAFE_SOURCE)
        payload = json.loads(Session().check_files([path]).to_json())
        assert payload["ok"] is True
        assert payload["files"][0]["file"] == str(path)

    @pytest.mark.parametrize("cls", [SolverStats, SolveStats])
    def test_counter_dataclasses_cover_every_field(self, cls):
        """``to_dict`` names every field exactly once and ``merge`` sums
        every field, so a new counter needs no hand-written list."""
        names = [f.name for f in fields(cls)]
        left = cls(**{name: i + 1 for i, name in enumerate(names)})
        right = cls(**{name: 10 * (i + 1) for i, name in enumerate(names)})
        assert list(left.to_dict()) == names
        left.merge(right)
        assert left.to_dict() == {name: 11 * (i + 1)
                                  for i, name in enumerate(names)}


class TestCheckProgram:
    def test_check_program_skips_parsing(self):
        from repro.lang import parse_program
        program = parse_program(SAFE_SOURCE, "wrapped.rsc")
        result = Session().check_program(program)
        assert result.ok
        assert result.filename == "wrapped.rsc"


#: A function body whose one expression is a 600-term left-nested sum: past
#: the interpreter's recursion limit in the checker's expression synthesis.
DEEP_SUM_SOURCE = ("spec f :: (x: number) => number;\n"
                   "function f(x) { var y = x" + " + 1" * 599
                   + "; return y; }\n")


class TestDeepExpressions:
    def _assert_too_deep(self, result, filename):
        assert not result.ok
        [diag] = result.diagnostics
        assert diag.code == "RSC-INT-001"
        assert "too deep" in diag.message
        assert result.filename == filename

    def test_check_source_reports_too_deep(self):
        session = Session()
        result = session.check_source(DEEP_SUM_SOURCE, "deep.rsc")
        self._assert_too_deep(result, "deep.rsc")
        assert session.checks_run == 1
        # The shared solver stays usable.
        assert session.check_source(SAFE_SOURCE, "safe.rsc").ok

    def test_check_program_reports_too_deep(self):
        from repro.lang import parse_program
        program = parse_program(DEEP_SUM_SOURCE, "deep.rsc")
        self._assert_too_deep(Session().check_program(program), "deep.rsc")

    def test_nothing_from_the_failed_check_is_stored(self, tmp_path):
        session = Session(CheckConfig(store_path=str(tmp_path)))
        self._assert_too_deep(
            session.check_source(DEEP_SUM_SOURCE, "deep.rsc"), "deep.rsc")
        assert session.solver._recorders == []
        assert session.store.stats().total_entries == 0
        assert session.check_source(SAFE_SOURCE, "safe.rsc").ok
        assert session.store.stats().total_entries == 2

    def test_failure_after_constraints_detaches_the_store_sink(
            self, tmp_path, monkeypatch):
        from repro.core.liquid.fixpoint import LiquidSolver

        def overflow(*args, **kwargs):
            raise RecursionError("injected solve overflow")

        session = Session(CheckConfig(store_path=str(tmp_path)))
        monkeypatch.setattr(LiquidSolver, "solve", overflow)
        self._assert_too_deep(session.check_source(SAFE_SOURCE, "a.rsc"),
                              "a.rsc")
        assert session.solver._recorders == []
        assert session.store.stats().total_entries == 0
