"""Counterexample-guided refutation: goals answered under kept models.

Within one implication batch, each goal the SAT loop refutes keeps its
theory model, and a later goal whose negation evaluates to true under a
kept model (in which the hypotheses evaluate to true) is answered "not
valid" with no SAT call (:mod:`repro.smt.model`).  The suite checks that
fast path three ways:

* **differential oracle** — a test-side seam records every goal a model
  refutes, and a fresh solver (its own CNF and SAT solver per query, no
  contexts, no models) is re-asked about each one: all must be
  satisfiable, on fuzzed batches, on the seven ports and on the two
  module projects;
* **reference run** — with the evaluator patched to answer "unknown",
  every port and project gives the same diagnostics, kappa solutions and
  ``queries``/``valid``/``invalid``/``cache_hits`` counters;
* **mutations** — an inconsistent function table, a point that violates a
  disequality, a term outside the model and hypotheses that evaluate false
  each refute nothing.
"""

from __future__ import annotations

import pathlib
import random

import pytest

from repro import bench
from repro.client import Client
from repro.core.config import CheckConfig
from repro.core.session import Session
from repro.logic import INT
from repro.logic.terms import App, BinOp, IntLit, Var, conj
from repro.obs.summary import summarize
from repro.obs.trace import trace_document, tracer
from repro.smt import Result, Solver
from repro.smt.lia import LiaProblem, LinExpr
from repro.smt.model import TheoryModel, integer_point
from repro.smt.theory import check_with_core
from test_smt_fuzz import FormulaGen

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "benchmarks" / "programs"
MODULES = ROOT / "benchmarks" / "modules"

x, y, z = Var("x", INT), Var("y", INT), Var("z", INT)


def op(name, left, right):
    return BinOp(name, left, right)


@pytest.fixture
def refuted(monkeypatch):
    """The seam: every ``(hypotheses, negated goal)`` a model refutes."""
    seen = []
    original = TheoryModel.refutes

    def recording(self, hypotheses, negated_goal):
        answer = original(self, hypotheses, negated_goal)
        if answer:
            seen.append((hypotheses, negated_goal))
        return answer

    monkeypatch.setattr(TheoryModel, "refutes", recording)
    return seen


def assert_not_valid(pairs) -> None:
    """Re-ask a fresh solver about every model-refuted goal."""
    for hypotheses, negated_goal in pairs:
        answer = Solver().check(conj(hypotheses, negated_goal))
        assert answer is Result.SAT, (
            f"a model refuted a goal the solver proves valid:\n"
            f"hyps={hypotheses}\nnegated goal={negated_goal}")


def comparable(result) -> tuple:
    return bench.verdict(result)


def counters(result) -> dict:
    stats = result.stats
    return {key: getattr(stats, key)
            for key in ("queries", "valid", "invalid", "cache_hits")}


def model_of(*literals):
    """The model a satisfiable theory check of ``literals`` keeps, and the
    conjunction of the literals (as hypotheses)."""
    result = check_with_core([(lit, True) for lit in literals])
    assert result.satisfiable and result.state is not None
    return TheoryModel(*result.state), conj(*literals)


# -- differential oracle ---------------------------------------------------


def test_fuzz_batches_model_refutations_hold(refuted):
    for seed in range(150):
        gen = FormulaGen(random.Random(1000 + seed))
        hyps, goals = gen.batch()
        goals += [gen.formula(2) for _ in range(6)]
        Solver().check_implication_batch(hyps, goals)
    assert len(refuted) > 50
    assert_not_valid(refuted)


@pytest.mark.parametrize("name", bench.BENCHMARKS)
def test_port_model_refutations_hold(name, refuted):
    result = Session().check_source((PROGRAMS / f"{name}.rsc").read_text(),
                                    f"{name}.rsc")
    assert result.ok
    assert result.stats.model_refutations == len(refuted) > 0
    assert_not_valid(refuted)


@pytest.mark.parametrize("project", bench.MODULE_BENCHMARKS)
def test_project_model_refutations_hold(project, refuted):
    result = Session().check_project(MODULES / project)
    assert result.ok
    assert result.stats.model_refutations == len(refuted) > 0
    assert_not_valid(refuted)


# -- reference run -----------------------------------------------------------


@pytest.fixture
def unknown_evaluator(monkeypatch):
    """Patch the evaluator to answer "unknown" for every term."""
    def patch():
        monkeypatch.setattr(TheoryModel, "evaluate", lambda self, e: None)
    return patch


@pytest.mark.parametrize("name", bench.BENCHMARKS)
def test_port_matches_reference_without_models(name, unknown_evaluator):
    source = (PROGRAMS / f"{name}.rsc").read_text()
    fast = Session().check_source(source, f"{name}.rsc")
    unknown_evaluator()
    reference = Session().check_source(source, f"{name}.rsc")
    assert comparable(fast) == comparable(reference)
    assert counters(fast) == counters(reference)
    assert reference.stats.model_refutations == 0 < \
        fast.stats.model_refutations
    assert fast.stats.sat_calls < reference.stats.sat_calls
    assert fast.stats.theory_checks < reference.stats.theory_checks


@pytest.mark.parametrize("project", bench.MODULE_BENCHMARKS)
def test_project_matches_reference_without_models(project,
                                                  unknown_evaluator):
    fast = Session().check_project(MODULES / project)
    unknown_evaluator()
    reference = Session().check_project(MODULES / project)
    assert comparable(fast) == comparable(reference)
    assert counters(fast) == counters(reference)
    assert reference.stats.model_refutations == 0 < \
        fast.stats.model_refutations


# -- the model ---------------------------------------------------------------


def test_model_refutes_under_its_hypotheses():
    model, hyps = model_of(op(">=", x, IntLit(1)), op("<=", x, IntLit(3)))
    assert model.evaluate(x) == 1
    assert model.refutes(hyps, op(">", x, IntLit(0)))
    assert not model.refutes(hyps, op(">", x, IntLit(1)))


def test_batch_answers_later_goals_without_sat_calls():
    hyps = [op(">=", x, IntLit(0))]
    goals = [op("<", x, IntLit(0)), op("=", x, IntLit(7)),
             op(">=", x, IntLit(0))]
    solver = Solver()
    assert solver.check_implication_batch(hyps, goals) == [False, False,
                                                           True]
    assert solver.stats.model_refutations == 1
    # Single implications keep no models.
    single = Solver()
    assert [single.check_implication(hyps, goal) for goal in goals] == \
        [False, False, True]
    assert single.stats.model_refutations == 0


def test_product_is_the_integer_product():
    """The solver opens ``p * q`` once ``q``'s class holds a constant, so
    a model may not give the product any other value.  Here the
    hypotheses are consistent for the solver while ``q`` is only bounded,
    but ``q != 3`` is valid: with ``q = 3`` asserted, ``p * q`` becomes
    ``3 * p``.  A product read from the function table (``z``'s value)
    would refute that valid goal."""
    p, q = Var("p", INT), Var("q", INT)
    hyps = [op(">=", q, IntLit(3)), op("<=", q, IntLit(3)),
            op("=", z, op("*", p, q)), op("!=", z, op("*", IntLit(3), p))]
    goals = [op("<", p, IntLit(0)), op("!=", q, IntLit(3))]
    solver = Solver()
    assert not solver.environment_inconsistent(hyps)
    assert solver.check_implication_batch(hyps, goals) == [False, True]


def test_bit_operations_read_32_bits():
    model, hyps = model_of(op(">=", x, IntLit(-1)), op("<=", x, IntLit(-1)))
    assert model.evaluate(op("&", x, IntLit(1 << 32 | 4))) == 4
    assert model.evaluate(App("mask", (x, IntLit(1 << 32)))) is False
    assert model.evaluate(op("|", x, IntLit(0))) == (1 << 32) - 1


# -- mutations: none of these may refute ---------------------------------------


def test_inconsistent_function_table_refutes_nothing():
    """``x`` and ``y`` are both 1 by LIA only, so the closure keeps
    ``f(x)`` and ``f(y)`` apart with different constants; the table
    catches the clash and the hypotheses are unknown."""
    f_x, f_y = App("f", (x,)), App("f", (y,))
    model, hyps = model_of(op(">=", x, IntLit(1)), op("<=", x, IntLit(1)),
                           op(">=", y, IntLit(1)), op("<=", y, IntLit(1)),
                           op("=", f_x, IntLit(5)), op("=", f_y, IntLit(6)))
    assert model.evaluate(f_x) == 5
    assert model.evaluate(f_y) is None
    assert model.evaluate(hyps) is None
    assert not model.refutes(hyps, op("=", x, IntLit(1)))


def test_point_violating_a_disequality_refutes_nothing():
    # Fourier–Motzkin accepts x in [0, 1] with x != 0 and x != 1 (neither
    # disequality is entailed), but no integer keeps both.
    model, hyps = model_of(op(">=", x, IntLit(0)), op("<=", x, IntLit(1)),
                           op("!=", x, IntLit(0)), op("!=", x, IntLit(1)))
    assert model.evaluate(x) is None
    assert not model.refutes(hyps, op(">=", x, IntLit(0)))
    # The point is checked against every disequality, including ones over
    # variables no inequality bounds: here the two take consecutive fresh
    # values, and ``t1 - t2 - 1 != 0`` fails.
    t1, t2 = ("t", 1), ("t", 2)
    problem = LiaProblem(diseqs=[LinExpr({t1: 1, t2: -1}, -1)])
    assert integer_point(problem) is None
    problem = LiaProblem(diseqs=[LinExpr({t1: 1, t2: -1}, 0)])
    assert integer_point(problem) == {t1: -1, t2: -2}


def test_rational_only_point_refutes_nothing():
    double = op("*", IntLit(2), x)
    model, hyps = model_of(op(">=", double, IntLit(1)),
                           op("<=", double, IntLit(1)))
    assert model.evaluate(x) is None
    assert not model.refutes(hyps, op("=", x, x))


def test_term_outside_the_model_refutes_nothing():
    model, hyps = model_of(op(">=", x, IntLit(1)))
    assert model.refutes(hyps, op("=", x, IntLit(1)))
    assert model.evaluate(z) is None
    assert not model.refutes(hyps, op("<", z, IntLit(0)))
    assert not model.refutes(hyps, op("=", App("len", (z,)), IntLit(0)))


def test_false_hypotheses_refute_nothing():
    model, hyps = model_of(op(">=", x, IntLit(1)))
    goal_negation = op(">", x, IntLit(0))
    assert model.refutes(hyps, goal_negation)
    other = op("=", x, IntLit(5))
    assert model.evaluate(other) is False
    # Asked under other hypotheses, the model checks them again.
    assert not model.refutes(other, goal_negation)
    assert model.refutes(hyps, goal_negation)


# -- surfaces ------------------------------------------------------------------


def test_trace_tells_the_two_refutations_apart():
    t = tracer()
    t.reset()
    t.enable()
    try:
        Session().check_source((PROGRAMS / "richards.rsc").read_text(),
                               "richards.rsc")
        events = t.drain()["events"]
    finally:
        t.reset()
    queries = [e["args"] for e in events if e["name"] == "smt.query"]
    by_model = [a for a in queries if a.get("model")]
    assert by_model and all(a["result"] == "sat" for a in by_model)
    batches = [e["args"] for e in events if e["name"] == "fixpoint.batch"]
    assert sum(a["model_refuted"] for a in batches) == len(by_model)
    verdicts = summarize(trace_document(events))["verdicts"]
    assert verdicts["refuted_by_model"] == len(by_model)
    assert verdicts["refuted_by_solver"] == sum(
        1 for a in queries if a["result"] == "sat" and not a.get("model"))


def test_counter_reaches_json_stats_and_bench_rows():
    source = (PROGRAMS / "richards.rsc").read_text()
    result = Session().check_source(source, "richards.rsc")
    assert result.to_dict()["solver_stats"]["model_refutations"] > 0
    client = Client.local(CheckConfig())
    client.check("richards.rsc", source)
    solver = client.stats().tenants["default"]["solver"]
    assert solver["model_refutations"] == result.stats.model_refutations
    for row in bench.smt(["richards"]) + bench.figure6(["richards"]):
        assert row.counters["model_refutations"] == \
            result.stats.model_refutations
