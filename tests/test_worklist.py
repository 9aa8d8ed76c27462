"""Tests for the dependency-directed worklist fixpoint engine.

Covers the kappa dependency graph and its SCC condensation, the
pruning/memoisation layers that cut SMT queries, the typed
:class:`ObligationOutcome` reporting, and — the central property — that the
worklist engine computes exactly the same solution as the naive
global-round engine (:func:`naive_sweep`, the reference oracle) on every
fixture program and every benchmark port, while issuing strictly fewer SMT
validity queries whenever there are Horn constraints to solve.
"""

import pathlib

import pytest

from repro import Session
from repro.core.constraints import Implication
from repro.core.liquid.fixpoint import (
    KappaRegistry,
    LiquidSolver,
    ObligationOutcome,
    _occurrence_subst,
    build_dependency_graph,
    scc_ranks,
)
from repro.core.liquid.qualifiers import KIND_NUMBER, Qualifier, QualifierPool
from repro.errors import ErrorKind, SourceSpan
from repro.logic import IntLit, VALUE_VAR, Var, eq, le, lt
from repro.logic.terms import substitute
from repro.rtypes.types import kvar_occurrence
from repro.smt.solver import Solver

BENCH_PROGRAMS = sorted(
    (pathlib.Path(__file__).parent.parent / "benchmarks" / "programs")
    .glob("*.rsc"))

#: Small fixture programs exercising kappa inference (loops and joins).
FIXTURES = {
    "loop_sum": """
        spec sum :: (xs: number[]) => number;
        function sum(xs) {
          var acc = 0;
          for (var i = 0; i < xs.length; i++) {
            acc = acc + xs[i];
          }
          return acc;
        }
    """,
    "countdown": """
        spec countdown :: (n: number) => number;
        function countdown(n) {
          var i = n;
          var steps = 0;
          while (0 < i) {
            i = i - 1;
            steps = steps + 1;
          }
          return steps;
        }
    """,
    "join": """
        spec pick :: (a: number, b: number) => number;
        function pick(a, b) {
          var best = a;
          if (b < a) { best = b; }
          return best;
        }
    """,
}


def naive_sweep(self, horn, solution, seed_kappas=None):
    """The reference fixpoint engine, in place of
    :meth:`LiquidSolver._solve_worklist`: every round sweeps every Horn
    implication, one validity query per candidate qualifier, until a round
    changes nothing."""
    for _ in range(self.max_iterations):
        self.stats.rounds += 1
        changed = False
        for imp in horn:
            occurrence = self._goal_kappa(imp)
            name = occurrence.fn
            mapping = _occurrence_subst(self.registry.info(name), occurrence)
            hyps = [self.apply(h, solution) for h in imp.hyps]
            kept = []
            for qual in solution.get(name, []):
                self.stats.queries_issued += 1
                if self.solver.check_implication(hyps,
                                                 substitute(qual, mapping)):
                    kept.append(qual)
                else:
                    self._mark_refuted(name, qual)
                    changed = True
            solution[name] = kept
        if not changed:
            break


def _check_both(monkeypatch, source, filename="<fixture>"):
    """``source`` checked by the naive oracle, then by the worklist."""
    with monkeypatch.context() as patch:
        patch.setattr(LiquidSolver, "_solve_worklist", naive_sweep)
        naive = Session().check_source(source, filename)
    worklist = Session().check_source(source, filename)
    return naive, worklist


def _rendered(solution):
    return {name: [str(q) for q in quals]
            for name, quals in solution.items()}


class TestDependencyGraph:
    def _implication(self, hyp_kappas, goal_kappa):
        hyps = [kvar_occurrence(k, ["x"]) for k in hyp_kappas]
        return Implication(hyps=hyps,
                           goal=kvar_occurrence(goal_kappa, ["x"]),
                           reason="test")

    def test_edges_run_from_hypothesis_to_goal(self):
        imps = [self._implication(["$k0"], "$k1")]
        graph = build_dependency_graph(imps)
        assert graph["$k0"] == {"$k1"}
        assert graph["$k1"] == set()

    def test_cycle_collapses_into_one_scc(self):
        # k0 -> k1 -> k2 -> k0 is a cycle; k3 hangs off k2.
        imps = [
            self._implication(["$k0"], "$k1"),
            self._implication(["$k1"], "$k2"),
            self._implication(["$k2"], "$k0"),
            self._implication(["$k2"], "$k3"),
        ]
        rank, count = scc_ranks(build_dependency_graph(imps))
        assert count == 2
        assert rank["$k0"] == rank["$k1"] == rank["$k2"]
        # the cycle feeds k3, so topologically it comes first
        assert rank["$k0"] < rank["$k3"]

    def test_chain_is_ranked_topologically(self):
        imps = [
            self._implication([], "$k0"),
            self._implication(["$k0"], "$k1"),
            self._implication(["$k1"], "$k2"),
        ]
        rank, count = scc_ranks(build_dependency_graph(imps))
        assert count == 3
        assert rank["$k0"] < rank["$k1"] < rank["$k2"]


class TestPruning:
    def test_syntactic_tautology_needs_no_query(self):
        """A candidate that literally appears among the hypotheses is kept
        without consulting the SMT solver."""
        registry = KappaRegistry()
        registry.register("$k0", ["v", "n"], {"n": KIND_NUMBER})
        pool = QualifierPool(qualifiers=[Qualifier(le(IntLit(0), VALUE_VAR))])
        liquid = LiquidSolver(Solver(), pool, registry)
        imp = Implication(hyps=[le(IntLit(0), VALUE_VAR)],
                          goal=kvar_occurrence("$k0", ["n"]), reason="taut")
        solution = liquid.solve([imp])
        assert [str(q) for q in solution["$k0"]] == ["(0 <= v)"]
        assert liquid.stats.queries_issued == 0
        assert liquid.stats.queries_pruned >= 1

    def test_inconsistent_hypotheses_need_no_query(self):
        registry = KappaRegistry()
        registry.register("$k0", ["v", "n"], {"n": KIND_NUMBER})
        pool = QualifierPool(qualifiers=[Qualifier(lt(IntLit(0), VALUE_VAR))])
        liquid = LiquidSolver(Solver(), pool, registry)
        zero = IntLit(0)
        imp = Implication(
            hyps=[lt(Var("n"), zero), ~lt(Var("n"), zero)],
            goal=kvar_occurrence("$k0", ["n"]), reason="vacuous")
        solution = liquid.solve([imp])
        assert [str(q) for q in solution["$k0"]] == ["(0 < v)"]
        assert liquid.stats.queries_issued == 0

    def test_refuted_qualifier_never_requeried(self):
        """Once a (kappa, qualifier) pair is refuted it is memoised: a later
        solve on the same constraints must not issue a query for it."""
        registry = KappaRegistry()
        registry.register("$k0", ["v", "n"], {"n": KIND_NUMBER})
        solver = Solver()
        liquid = LiquidSolver(solver, QualifierPool(), registry)
        # v = 0 entry: keeps 0 <= v, refutes 0 < v, v != 0, comparisons to n...
        imp = Implication(hyps=[eq(VALUE_VAR, IntLit(0))],
                          goal=kvar_occurrence("$k0", ["n"]), reason="entry")
        first = liquid.solve([imp])
        refuted = liquid.refuted
        assert refuted, "the entry constraint must refute some candidates"
        first_queries = liquid.stats.queries_issued

        queried = []
        original = solver.check_implication_batch

        def recording(hyps, goals):
            queried.extend(goals)
            return original(hyps, goals)

        solver.check_implication_batch = recording
        second = liquid.solve([imp])
        assert _rendered(second) == _rendered(first)
        # the occurrence substitution is the identity here, so a re-queried
        # refuted template would appear verbatim among the recorded goals
        refuted_templates = {qual for _name, qual in refuted}
        assert not refuted_templates & set(queried)
        assert liquid.stats.queries_issued < first_queries
        assert liquid.stats.queries_pruned >= len(refuted)


class TestObligationOutcome:
    def _liquid(self):
        return LiquidSolver(Solver(), QualifierPool(), KappaRegistry())

    def test_outcome_carries_code_and_span(self):
        span = SourceSpan(line=7, col=3, filename="prog.rsc")
        imp = Implication(hyps=[le(IntLit(0), Var("x"))],
                          goal=le(IntLit(1), Var("x")), reason="index bound",
                          span=span, kind=ErrorKind.BOUNDS, code="RSC-BND-001")
        outcome, = self._liquid().check_concrete([imp], {})
        assert isinstance(outcome, ObligationOutcome)
        assert not outcome.ok
        assert outcome.code == "RSC-BND-001"
        assert outcome.span is span

    def test_outcome_defaults_code_from_kind(self):
        imp = Implication(hyps=[], goal=le(IntLit(1), Var("x")),
                          reason="bound", kind=ErrorKind.BOUNDS)
        outcome, = self._liquid().check_concrete([imp], {})
        assert outcome.code == "RSC-BND-001"

    def test_outcome_unpacks_like_the_old_tuple(self):
        imp = Implication(hyps=[le(IntLit(0), Var("x"))],
                          goal=le(IntLit(-1), Var("x")), reason="ok")
        results = dict((i.reason, ok) for i, ok in
                       self._liquid().check_concrete([imp], {}))
        assert results == {"ok": True}

    def test_failed_obligation_diagnostic_has_span_and_code(self):
        result = Session().check_source(
            "spec f :: (xs: number[], i: number) => number;\n"
            "function f(xs, i) { return xs[i]; }\n", "bad.rsc")
        assert not result.ok
        diag = result.errors[0]
        assert diag.code.startswith("RSC-")
        assert diag.span.filename == "bad.rsc"
        assert diag.span.line > 0


class TestWorklistMatchesNaive:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_solutions_identical(self, name, monkeypatch):
        naive, worklist = _check_both(monkeypatch, FIXTURES[name],
                                      f"{name}.rsc")
        assert _rendered(worklist.kappa_solution) == \
            _rendered(naive.kappa_solution)
        assert [d.code for d in worklist.diagnostics] == \
            [d.code for d in naive.diagnostics]
        wl, nv = worklist.solve_stats, naive.solve_stats
        if nv.horn_implications:
            assert wl.queries_issued < nv.queries_issued
        else:
            assert wl.queries_issued == nv.queries_issued == 0

    @pytest.mark.parametrize(
        "program", BENCH_PROGRAMS, ids=[p.stem for p in BENCH_PROGRAMS])
    def test_benchmark_solutions_identical_with_fewer_queries(self, program,
                                                              monkeypatch):
        """The acceptance property: identical solutions, strictly fewer SMT
        validity queries, on every benchmark port."""
        naive, worklist = _check_both(monkeypatch, program.read_text(),
                                      program.name)
        assert _rendered(worklist.kappa_solution) == \
            _rendered(naive.kappa_solution)
        assert [d.code for d in worklist.diagnostics] == \
            [d.code for d in naive.diagnostics]
        assert worklist.solve_stats.horn_implications > 0, \
            f"{program.name} should exercise liquid inference"
        assert worklist.solve_stats.queries_issued < \
            naive.solve_stats.queries_issued


class TestSolveStatsFlow:
    def test_check_result_carries_solve_stats(self):
        result = Session().check_source(FIXTURES["loop_sum"])
        stats = result.solve_stats
        assert stats is not None
        assert stats.rounds > 0
        assert stats.kappas > 0

    def test_solve_stats_serialised_in_json(self):
        payload = Session().check_source(FIXTURES["join"]).to_dict()
        solve = payload["solve_stats"]
        assert solve["queries_issued"] >= 0
        assert set(solve) >= {"rounds", "queries_issued", "queries_pruned",
                              "cache_hits", "sccs"}

    def test_batch_aggregates_solve_stats(self, tmp_path):
        path = tmp_path / "a.rsc"
        path.write_text(FIXTURES["loop_sum"])
        batch = Session().check_files([path, path])
        assert batch.solve_stats.rounds >= 2
