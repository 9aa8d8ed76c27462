"""Differential fuzzing of the SMT solver stack.

A seeded random generator produces Bool/LIA/EUF formulas and implication
batches, and three independent deciders are compared:

* the **fresh** reference (:class:`FreshSolver`) — a new CNF and SAT solver
  per query: ``Solver.is_valid`` of the implication,
* the **incremental** engine (:class:`repro.smt.Solver`) — persistent
  assumption-based contexts with retained learned clauses and replayed
  theory lemmas (:mod:`repro.smt.context`),
* a **brute-force evaluator** over small integer domains (and a small
  family of concrete interpretations for the uninterpreted function).

The incremental and fresh engines must agree *exactly* — same verdict for
every goal of every batch, independent of goal order, of hypothesis order,
and of whether a context (or the query cache) is hit or rebuilt.  The
brute-force oracle checks soundness: whenever an engine proves an
implication valid, no sampled integer assignment may falsify it, and a
sampled model of a formula means the engine may not answer UNSAT.  (Exact
agreement with brute force is only asserted for purely propositional
formulas: the LIA layer is deliberately incomplete — rational
Fourier–Motzkin — so "not valid" answers on arithmetic are allowed to be
spurious, and a small sampled domain cannot refute validity over all of Z.)

Everything is driven by fixed seeds: the suite is deterministic, needs no
network, and stays well under the CI time budget.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.logic import BOOL, INT
from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    UnOp,
    Var,
    conj,
    implies,
)
from repro.smt import Result, Solver

#: Sampled values for every integer variable (compound terms range wider;
#: the evaluator handles any integer).
DOMAIN = (-2, -1, 0, 1, 2)

#: Concrete interpretations tried for the uninterpreted function ``f`` —
#: validity over an uninterpreted symbol implies validity for each of these.
F_INTERPRETATIONS = (
    lambda n: n,
    lambda n: -n,
    lambda n: n + 1,
    lambda n: 0,
    lambda n: abs(n),
)

INT_VARS = ("x", "y", "z")
BOOL_VARS = ("p", "q")


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


class FormulaGen:
    """Seeded random Bool/LIA/EUF formula generator."""

    def __init__(self, rng: random.Random, euf: bool = True) -> None:
        self.rng = rng
        self.euf = euf

    def int_term(self, depth: int = 2) -> Expr:
        choices = ["var", "lit"]
        if depth > 0:
            choices += ["add", "sub", "scale"]
            if self.euf:
                choices.append("app")
        kind = self.rng.choice(choices)
        if kind == "var":
            return Var(self.rng.choice(INT_VARS), INT)
        if kind == "lit":
            return IntLit(self.rng.randint(-2, 2))
        if kind == "add":
            return BinOp("+", self.int_term(depth - 1),
                         self.int_term(depth - 1), INT)
        if kind == "sub":
            return BinOp("-", self.int_term(depth - 1),
                         self.int_term(depth - 1), INT)
        if kind == "scale":
            return BinOp("*", IntLit(self.rng.randint(1, 2)),
                         self.int_term(depth - 1), INT)
        return App("f", (self.int_term(depth - 1),), INT)

    def atom(self) -> Expr:
        if self.rng.random() < 0.15:
            return Var(self.rng.choice(BOOL_VARS), BOOL)
        op = self.rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return BinOp(op, self.int_term(), self.int_term(), BOOL)

    def formula(self, depth: int = 2) -> Expr:
        if depth <= 0 or self.rng.random() < 0.4:
            return self.atom()
        kind = self.rng.choice(("not", "and", "or", "implies"))
        if kind == "not":
            return UnOp("!", self.formula(depth - 1), BOOL)
        op = {"and": "&&", "or": "||", "implies": "=>"}[kind]
        return BinOp(op, self.formula(depth - 1),
                     self.formula(depth - 1), BOOL)

    def boolean_formula(self, depth: int = 3) -> Expr:
        """Purely propositional: boolean variables and connectives only."""
        if depth <= 0 or self.rng.random() < 0.35:
            return Var(self.rng.choice(BOOL_VARS + ("r",)), BOOL)
        kind = self.rng.choice(("not", "and", "or", "implies"))
        if kind == "not":
            return UnOp("!", self.boolean_formula(depth - 1), BOOL)
        op = {"and": "&&", "or": "||", "implies": "=>"}[kind]
        return BinOp(op, self.boolean_formula(depth - 1),
                     self.boolean_formula(depth - 1), BOOL)

    def batch(self) -> Tuple[List[Expr], List[Expr]]:
        hyps = [self.formula(2) for _ in range(self.rng.randint(1, 3))]
        goals = [self.formula(2) for _ in range(self.rng.randint(2, 6))]
        return hyps, goals


# ---------------------------------------------------------------------------
# brute-force evaluator
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, env: Dict[str, object], f) -> object:
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, UnOp):
        operand = eval_expr(e.operand, env, f)
        if e.op == "!":
            return not operand
        if e.op == "-":
            return -operand
        raise ValueError(f"unexpected unop {e.op}")
    if isinstance(e, App):
        assert e.fn == "f"
        return f(eval_expr(e.args[0], env, f))
    if isinstance(e, BinOp):
        left = eval_expr(e.left, env, f)
        # Short-circuit so boolean operands are only evaluated as needed.
        if e.op == "&&":
            return bool(left) and bool(eval_expr(e.right, env, f))
        if e.op == "||":
            return bool(left) or bool(eval_expr(e.right, env, f))
        if e.op == "=>":
            return (not left) or bool(eval_expr(e.right, env, f))
        if e.op == "<=>":
            return bool(left) == bool(eval_expr(e.right, env, f))
        right = eval_expr(e.right, env, f)
        return {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "=": lambda: left == right,
            "!=": lambda: left != right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
        }[e.op]()
    raise ValueError(f"cannot evaluate {type(e).__name__}")


def assignments(int_vars: Sequence[str] = INT_VARS,
                bool_vars: Sequence[str] = BOOL_VARS):
    for ints in product(DOMAIN, repeat=len(int_vars)):
        for bools in product((False, True), repeat=len(bool_vars)):
            env: Dict[str, object] = dict(zip(int_vars, ints))
            env.update(zip(bool_vars, bools))
            yield env


def falsifies_implication(hyps: Sequence[Expr], goal: Expr) -> bool:
    """Does any sampled assignment satisfy the hypotheses but not the goal?"""
    for f in F_INTERPRETATIONS:
        for env in assignments():
            try:
                if all(eval_expr(h, env, f) for h in hyps) and \
                        not eval_expr(goal, env, f):
                    return True
            except (OverflowError, ZeroDivisionError):  # pragma: no cover
                continue
    return False


def bool_assignments(names: Sequence[str]):
    for values in product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


# ---------------------------------------------------------------------------
# solvers under test
# ---------------------------------------------------------------------------


class FreshSolver(Solver):
    """The reference SMT engine: every implication is one :meth:`is_valid`
    query with its own CNF and SAT solver, and no persistent context.  It
    shares the result cache and its key with the contexts, so verdict and
    cache counters are comparable one to one."""

    def check_implication(self, hypotheses, goal):
        return self.check_implication_batch(hypotheses, [goal])[0]

    def check_implication_batch(self, hypotheses, goals):
        antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
        return [self.is_valid(implies(antecedent, goal)) for goal in goals]


#: The engines every parametrised test runs, by name.
SOLVERS = {"fresh": FreshSolver, "incremental": Solver}


def fresh_solver() -> Solver:
    return FreshSolver()


def incremental_solver(**kwargs) -> Solver:
    return Solver(**kwargs)


# ---------------------------------------------------------------------------
# the differential suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_batch_differential(seed):
    """incremental == fresh == (sound wrt) brute force, per batch."""
    gen = FormulaGen(random.Random(1000 + seed))
    hyps, goals = gen.batch()

    fresh = fresh_solver().check_implication_batch(hyps, goals)
    incremental = incremental_solver().check_implication_batch(hyps, goals)
    assert incremental == fresh, (
        f"seed {seed}: engines disagree\nhyps={hyps}\ngoals={goals}")

    for goal, valid in zip(goals, incremental):
        if valid:
            assert not falsifies_implication(hyps, goal), (
                f"seed {seed}: proved-valid implication has a "
                f"counterexample\nhyps={hyps}\ngoal={goal}")


@pytest.mark.parametrize("seed", range(40))
def test_batch_order_independence(seed):
    """Verdicts do not depend on goal order or hypothesis order."""
    rng = random.Random(2000 + seed)
    gen = FormulaGen(rng)
    hyps, goals = gen.batch()

    baseline = dict(zip(goals,
                        incremental_solver().check_implication_batch(hyps,
                                                                     goals)))
    shuffled_goals = list(goals)
    rng.shuffle(shuffled_goals)
    shuffled_hyps = list(hyps)
    rng.shuffle(shuffled_hyps)
    redo = incremental_solver().check_implication_batch(shuffled_hyps,
                                                        shuffled_goals)
    for goal, verdict in zip(shuffled_goals, redo):
        assert verdict == baseline[goal], (
            f"seed {seed}: goal verdict changed under reordering: {goal}")


@pytest.mark.parametrize("seed", range(40))
def test_cache_and_context_reuse_independence(seed):
    """Verdicts do not depend on context-cache hits, evictions or the
    query cache: re-running a batch (cache hits), interleaving two
    environments through a one-entry context LRU (evictions and rebuilds),
    and disabling the query cache all reproduce the same verdicts."""
    gen = FormulaGen(random.Random(3000 + seed))
    hyps_a, goals_a = gen.batch()
    hyps_b, goals_b = gen.batch()

    expected_a = incremental_solver().check_implication_batch(hyps_a, goals_a)
    expected_b = incremental_solver().check_implication_batch(hyps_b, goals_b)

    # One shared solver, contexts evicted after every batch (limit=1), the
    # query cache disabled so every check really exercises a context.
    churn = incremental_solver(cache_results=False, context_cache_limit=1)
    for _ in range(2):  # second round rebuilds evicted contexts from lemmas
        assert churn.check_implication_batch(hyps_a, goals_a) == expected_a
        assert churn.check_implication_batch(hyps_b, goals_b) == expected_b
    assert churn.stats.contexts_created >= 2

    # With the query cache on, a re-run must serve hits with the same
    # verdicts.
    cached = incremental_solver()
    first = cached.check_implication_batch(hyps_a, goals_a)
    hits_before = cached.stats.cache_hits
    assert cached.check_implication_batch(hyps_a, goals_a) == first
    assert cached.stats.cache_hits > hits_before


@pytest.mark.parametrize("seed", range(60))
def test_pure_boolean_exact(seed):
    """On purely propositional implications all three deciders agree
    exactly — the SAT core is complete there, so brute force over the
    boolean assignments is a full oracle, not just a soundness check."""
    gen = FormulaGen(random.Random(4000 + seed))
    names = BOOL_VARS + ("r",)
    hyps = [gen.boolean_formula(2) for _ in range(gen.rng.randint(1, 2))]
    goals = [gen.boolean_formula(2) for _ in range(gen.rng.randint(2, 5))]

    fresh = fresh_solver().check_implication_batch(hyps, goals)
    incremental = incremental_solver().check_implication_batch(hyps, goals)
    assert incremental == fresh

    for goal, verdict in zip(goals, incremental):
        brute = all(
            (not all(eval_expr(h, env, None) for h in hyps))
            or eval_expr(goal, env, None)
            for env in bool_assignments(names))
        assert verdict == brute, (
            f"seed {seed}: engine verdict {verdict} != brute {brute} "
            f"for hyps={hyps} goal={goal}")


@pytest.mark.parametrize("seed", range(40))
def test_satisfiability_sound(seed):
    """A sampled model means neither engine may answer UNSAT."""
    gen = FormulaGen(random.Random(5000 + seed))
    formula = gen.formula(3)

    results = {mode: engine().check(formula)
               for mode, engine in SOLVERS.items()}
    # `check` takes the fresh path in both modes (it is a bare
    # satisfiability query, not an implication); the differential property
    # for contexts is covered by the batch tests.  Still assert agreement.
    assert results["fresh"] == results["incremental"]

    has_model = any(
        eval_expr(formula, env, f)
        for f in F_INTERPRETATIONS for env in assignments())
    if has_model:
        assert results["fresh"] is not Result.UNSAT, (
            f"seed {seed}: formula with a sampled model answered UNSAT: "
            f"{formula}")


def test_environment_inconsistent_batches():
    """An unsatisfiable environment proves every goal, in both modes."""
    x = Var("x", INT)
    hyps = [BinOp("<", x, IntLit(0), BOOL), BinOp(">", x, IntLit(0), BOOL)]
    goals = [BinOp("=", x, IntLit(7), BOOL), BoolLit(False), BoolLit(True)]
    assert fresh_solver().check_implication_batch(hyps, goals) == \
        incremental_solver().check_implication_batch(hyps, goals) == \
        [True, True, True]


def test_trivial_goals_and_empty_hypotheses():
    x = Var("x", INT)
    goals = [BoolLit(True), BoolLit(False),
             BinOp("=", x, x, BOOL),
             BinOp("<", x, x, BOOL)]
    expected = [True, False, True, False]
    assert fresh_solver().check_implication_batch([], goals) == expected
    assert incremental_solver().check_implication_batch([], goals) == expected


def literals_satisfiable(literals: Sequence[Tuple[Expr, bool]]) -> bool:
    """Does any sampled assignment make every theory literal true?"""
    for f in F_INTERPRETATIONS:
        for env in assignments():
            if all(bool(eval_expr(atom, env, f)) == polarity
                   for atom, polarity in literals):
                return True
    return False


@pytest.mark.parametrize("mode", ["fresh", "incremental"])
def test_explained_cores_are_unsat_subsets(monkeypatch, mode):
    """Every core ``check_with_core`` explains, over every fuzz batch of
    ``test_batch_differential``: a subset of its input that the theory
    check refutes on its own and the brute-force oracle finds no model
    of."""
    from repro.smt import context, solver as solver_module, theory

    cores = {}
    real_check_with_core = theory.check_with_core

    def recording_check_with_core(literals):
        result = real_check_with_core(literals)
        if not result.satisfiable:
            assert set(result.core) <= set(literals)
            cores[frozenset(result.core)] = result.core
        return result

    monkeypatch.setattr(context, "check_with_core", recording_check_with_core)
    monkeypatch.setattr(solver_module, "check_with_core",
                        recording_check_with_core)
    for seed in range(120):
        hyps, goals = FormulaGen(random.Random(1000 + seed)).batch()
        SOLVERS[mode]().check_implication_batch(hyps, goals)
    assert len(cores) >= 20
    for core in cores.values():
        assert core
        assert not theory.check_literals(core), core
        assert not literals_satisfiable(core), core


@pytest.mark.parametrize("mode", ["fresh", "incremental"])
def test_giveups_are_counted_and_never_cached(mode):
    """A query the theory-iteration budget cuts short is UNKNOWN: counted
    in ``giveups``, never cached, and never handed to a recording sink
    (which is how verdicts reach the persistent store)."""
    solver = SOLVERS[mode](max_theory_iterations=0)
    sink: Dict[Expr, Result] = {}
    solver.record_queries(sink)
    x = Var("x", INT)
    hypotheses = [BinOp("<", IntLit(0), x, BOOL)]
    goal = BinOp("<=", IntLit(1), x, BOOL)
    for _ in range(2):
        assert solver.check_implication(hypotheses, goal) is False
    assert solver.stats.queries == 2
    assert solver.stats.cache_hits == 0
    assert solver.stats.giveups == 2
    assert sink == {} and solver.cache_size == 0
    doubled = solver.stats.copy()
    doubled.merge(solver.stats)
    assert doubled.delta_since(solver.stats).giveups == 2


@pytest.mark.parametrize("mode", ["fresh", "incremental"])
def test_fourier_motzkin_giveup_is_unknown(monkeypatch, tmp_path, mode):
    """A Fourier–Motzkin give-up is no model: the query is UNKNOWN, counted
    in ``giveups``, and lands neither in the solver's LRU nor in the
    artifact store."""
    from repro.core.config import CheckConfig
    from repro.core.session import Session
    from repro.smt import lia
    from repro.store.artifacts import ArtifactStore

    monkeypatch.setattr(lia, "MAX_CONSTRAINTS", 0)
    solver = SOLVERS[mode]()
    sink: Dict[Expr, Result] = {}
    solver.record_queries(sink)
    x = Var("x", INT)
    hypotheses = [BinOp("<", IntLit(0), x, BOOL)]
    goal = BinOp("<=", IntLit(1), x, BOOL)
    for _ in range(2):
        assert solver.check_implication(hypotheses, goal) is False
    assert solver.stats.giveups == 2
    assert solver.stats.cache_hits == 0
    assert sink == {} and solver.cache_size == 0

    saved: List[Tuple[Expr, Result]] = []
    real_save = ArtifactStore.save_verdicts

    def spying_save(store, key, pairs):
        pairs = list(pairs)
        saved.extend(pairs)
        return real_save(store, key, pairs)

    monkeypatch.setattr(ArtifactStore, "save_verdicts", spying_save)
    session = Session(CheckConfig(store_path=str(tmp_path)),
                      solver=SOLVERS[mode]())
    session.check_source(
        "function abs(x: number): {v: number | 0 <= v} {\n"
        "  if (x < 0) { return 0 - x; }\n"
        "  return x;\n"
        "}\n"
        "function id(x: number): {v: number | v = x} { return x; }\n")
    stats = session.solver.stats
    assert stats.giveups > 0
    assert saved and Result.UNKNOWN not in {result for _f, result in saved}
    assert len(saved) == stats.queries - stats.giveups


def test_giveups_reach_check_json(tmp_path, capsys):
    import json

    from repro.__main__ import main
    source = tmp_path / "id.rsc"
    source.write_text("spec id :: (x: number) => number;\n"
                      "function id(x) { return x; }\n")
    assert main(["check", "--format", "json", str(source)]) == 0
    stats = json.loads(capsys.readouterr().out)["files"][0]["solver_stats"]
    assert stats["giveups"] == 0


def test_lemma_store_shared_across_contexts():
    """Theory conflicts derived under one environment are replayed under
    another: the second context answers with strictly fewer theory checks
    than the first needed."""
    x = Var("x", INT)
    y = Var("y", INT)
    goal = BinOp("<=", IntLit(0), x, BOOL)
    hyps_one = [BinOp(">", x, IntLit(1), BOOL)]
    hyps_two = [BinOp(">", x, IntLit(1), BOOL),
                BinOp("=", y, y, BOOL)]  # distinct environment, same core
    solver = incremental_solver()
    assert solver.check_implication_batch(hyps_one, [goal]) == [True]
    checks_after_first = solver.stats.theory_checks
    assert solver.check_implication_batch(hyps_two, [goal]) == [True]
    assert solver.stats.contexts_created == 2
    assert solver.stats.theory_checks == checks_after_first, \
        "second context should replay the memoised lemma, not re-derive it"
    assert solver.stats.lemmas_reused >= 1


# ---------------------------------------------------------------------------
# root theory state: a context's level-0 literals checked once, each model
# as root + delta
# ---------------------------------------------------------------------------


def random_literals(rng: random.Random, count: int) -> List[Tuple[Expr, bool]]:
    gen = FormulaGen(rng)
    return [(gen.atom(), rng.random() < 0.5) for _ in range(count)]


def same_answer(left, right) -> bool:
    return (left.satisfiable, left.gave_up) == (right.satisfiable,
                                               right.gave_up)


@pytest.mark.parametrize("seed", range(60))
def test_root_plus_delta_matches_check_with_core(seed):
    """Seeded literal sets split into a root and deltas.  Root + delta
    answers as ``check_with_core`` on the whole list, from an empty root;
    without pre-registered atoms the core is the same too.  Every core is
    an unsat subset under the brute-force oracle.  A run of deltas over
    one root state answers exactly as each delta on a root of its own, so
    no model leaks state into the next."""
    from repro.smt.theory import ModelLiterals, RootState, check_with_core

    rng = random.Random(7000 + seed)
    root_lits = random_literals(rng, rng.randint(0, 5))
    deltas = [random_literals(rng, rng.randint(0, 4)) for _ in range(4)]
    # The atoms a context pre-registers: those of its other hypotheses.
    atoms = [atom for atom, _ in random_literals(rng, rng.randint(0, 3))]
    shared = RootState(root_lits)
    shared_with_atoms = RootState(root_lits, atoms)
    for delta in deltas:
        scratch = check_with_core(root_lits + delta)
        for root in (shared, shared_with_atoms):
            result = check_with_core(ModelLiterals(root, delta))
            assert same_answer(result, scratch), (root_lits, delta)
            alone = RootState(root.literals, root.atoms).check(delta)
            assert (alone.satisfiable, alone.core, alone.gave_up) == \
                (result.satisfiable, result.core, result.gave_up)
            if not result.satisfiable:
                assert set(result.core) <= set(root_lits + delta)
                assert not literals_satisfiable(result.core), result.core
        assert check_with_core(ModelLiterals(shared, delta)).core == scratch.core


def _le(a: Expr, b: Expr) -> Expr:
    return BinOp("<=", a, b, BOOL)


def _eq(a: Expr, b: Expr) -> Expr:
    return BinOp("=", a, b, BOOL)


X, Y, Z = Var("x", INT), Var("y", INT), Var("z", INT)


def test_delta_merging_root_classes_relinearises_their_rows():
    """A delta that merges two classes a root row reads makes the row
    dirty: reusing its old linear form would miss ``x + 1 <= x``."""
    from repro.smt.theory import RootState, check_with_core

    root_lits = [(_le(BinOp("+", X, IntLit(1), INT), Y), True)]
    root = RootState(root_lits)
    built = root.check([])
    assert built.satisfiable and built.linearize_calls == 2
    untouched = root.check([(_le(IntLit(0), Z), True)])
    assert untouched.satisfiable
    assert untouched.linearize_calls == 2  # the delta row only
    merged = root.check([(_eq(X, Y), True)])
    assert not merged.satisfiable
    assert merged.linearize_calls == 4  # the delta row and the dirty row
    assert set(merged.core) == set(root_lits + [(_eq(X, Y), True)])
    assert not check_with_core(root_lits + [(_eq(X, Y), True)]).satisfiable


def test_delta_pinning_a_constant_under_a_nonlinear_root_term():
    """Root ``x*y <= 5, x >= 2``; the delta ``y = 3`` pins ``y``, so the
    opaque product becomes ``3x`` and the model is unsat, as it is when
    checked from scratch."""
    from repro.smt.theory import RootState, check_with_core

    root_lits = [(_le(BinOp("*", X, Y, INT), IntLit(5)), True),
                 (BinOp(">=", X, IntLit(2), BOOL), True)]
    delta = [(_eq(Y, IntLit(3)), True)]
    root = RootState(root_lits)
    assert root.check([]).satisfiable
    assert not check_with_core(root_lits + delta).satisfiable
    result = root.check(delta)
    assert not result.satisfiable
    assert set(result.core) == set(root_lits + delta)
    # y = 4 pins it too; y = x is a merge with no constant: still sat.
    assert not root.check([(_eq(Y, IntLit(4)), True)]).satisfiable
    assert root.check([(_eq(Y, X), True)]).satisfiable


def test_delta_conflict_leaves_the_root_untouched():
    """A delta whose congruence closure conflicts is checked on a copy:
    the root closure, rows and answers for the next model are as before."""
    from repro.smt.theory import RootState

    f = lambda t: App("f", (t,), INT)
    root = RootState([(_eq(X, Y), True),
                      (_le(f(X), IntLit(3)), True)], [_eq(f(Y), Z)])
    first = root.check([])
    assert first.satisfiable and first.terms_added > 0
    snapshot = (list(root.cc._rep), list(root.cc._proof), root.cc.conflict,
                [row.leqs for row in root.rows])
    conflict = root.check([(_eq(f(X), f(Y)), False)])
    assert not conflict.satisfiable
    assert set(conflict.core) == {(_eq(X, Y), True), (_eq(f(X), f(Y)), False)}
    assert snapshot == (list(root.cc._rep), list(root.cc._proof),
                        root.cc.conflict, [row.leqs for row in root.rows])
    after = root.check([(_eq(f(Y), IntLit(3)), True)])
    assert after.satisfiable
    assert after.terms_added == 0  # f(y) and 3 were registered by the root
    assert not root.check([(_le(IntLit(4), f(Y)), True)]).satisfiable


def test_root_inconsistent_environment():
    """A root whose own literals conflict refutes every model with a core
    of root literals, at the theory level and through a context."""
    from repro.smt.theory import RootState

    root_lits = [(_eq(X, IntLit(1)), True), (_eq(X, IntLit(2)), True)]
    root = RootState(root_lits)
    for delta in ([], [(_le(Z, IntLit(0)), True)], [(_eq(Y, Z), False)]):
        result = root.check(delta)
        assert not result.satisfiable
        assert set(result.core) == set(root_lits)
    falsum = RootState([(BoolLit(True), False), (_eq(X, Y), True)])
    assert falsum.check([(_eq(X, Y), False)]).core == [(BoolLit(True), False)]

    hyps = [atom for atom, _ in root_lits]
    goals = [_le(Z, IntLit(0)), BinOp("<", X, X, BOOL)]
    assert incremental_solver().check_implication_batch(hyps, goals) == \
        fresh_solver().check_implication_batch(hyps, goals) == [True, True]


def test_context_root_is_the_level_zero_hypotheses():
    """A context's root holds the hypothesis literals fixed at level 0, in
    polarity; the disjunction's atoms are only registered."""
    from repro.logic.terms import conj

    p, q = Var("p", BOOL), Var("q", BOOL)
    hyps = [_le(X, Y), UnOp("!", _eq(Y, Z), BOOL), BinOp("||", p, q, BOOL)]
    solver = incremental_solver()
    assert solver.check_implication_batch(hyps, [_le(X, Z)]) == [False]
    ctx = solver.contexts.context_for(conj(*hyps), solver.stats)
    root = ctx.root_state()
    assert set(root.literals) == {(_le(X, Y), True), (_eq(Y, Z), False)}
    assert set(root.atoms) == {p, q}
    fixed = ctx.sat.fixed_literals()
    assert len(fixed) >= 2 and all(lit in fixed for lit in
                                   (ctx.atoms.atom_to_var[_le(X, Y)],
                                    -ctx.atoms.atom_to_var[_eq(Y, Z)]))


def test_work_counters_reach_stats_and_json(tmp_path, capsys):
    """``euf_terms_added``, ``linearize_calls`` and the ``sat_*`` counters
    are solver counters: merged, dumped by ``to_dict`` and printed by
    ``check --format json``."""
    import json

    from repro.__main__ import main

    gen = FormulaGen(random.Random(6000))
    hyps, goals = gen.batch()
    fresh, incremental = fresh_solver(), incremental_solver()
    assert fresh.check_implication_batch(hyps, goals) == \
        incremental.check_implication_batch(hyps, goals)
    assert fresh.stats.euf_terms_added > 0 and fresh.stats.linearize_calls > 0
    both = fresh.stats.copy()
    both.merge(incremental.stats)
    assert both.euf_terms_added == (fresh.stats.euf_terms_added
                                    + incremental.stats.euf_terms_added)
    assert both.to_dict()["linearize_calls"] == (
        fresh.stats.linearize_calls + incremental.stats.linearize_calls)
    for counter in ("sat_decisions", "sat_conflicts", "sat_propagations"):
        assert both.to_dict()[counter] == (getattr(fresh.stats, counter)
                                           + getattr(incremental.stats,
                                                     counter))
    assert fresh.stats.sat_propagations > 0
    assert incremental.stats.sat_propagations > 0

    source = tmp_path / "bound.rsc"
    source.write_text("function abs(x: number): {v: number | 0 <= v} {\n"
                      "  if (x < 0) { return 0 - x; }\n"
                      "  return x;\n"
                      "}\n")
    assert main(["check", "--format", "json", str(source)]) == 0
    stats = json.loads(capsys.readouterr().out)["files"][0]["solver_stats"]
    assert stats["theory_checks"] > 0
    assert stats["euf_terms_added"] > 0 and stats["linearize_calls"] > 0
    assert stats["sat_propagations"] > 0
    assert {"sat_decisions", "sat_conflicts"} <= set(stats)


# ---------------------------------------------------------------------------
# the CDCL core against brute force, and its branching heap against a scan
# ---------------------------------------------------------------------------


def cnf_models(num_vars: int, clauses: Sequence[Sequence[int]],
               assumptions: Sequence[int] = ()):
    """Every total assignment of variables ``1..num_vars`` (as a
    ``{var: bool}`` dict) satisfying the clauses and the assumptions."""
    for bits in product((False, True), repeat=num_vars):
        model = dict(zip(range(1, num_vars + 1), bits))
        if all(any(model[abs(lit)] == (lit > 0) for lit in clause)
               for clause in list(clauses) + [[a] for a in assumptions]):
            yield model


def satisfies(model: Dict[int, bool], clauses) -> bool:
    return all(any(model.get(abs(lit)) == (lit > 0) for lit in clause)
               for clause in clauses)


@pytest.mark.parametrize("seed", range(40))
def test_sat_solver_matches_brute_force(seed):
    """Random small CNFs grown between solve() calls: every answer agrees
    with enumeration, every model satisfies every clause and assumption,
    a propagation refutation is a real one, level-0 literals hold in every
    model, and retiring a selector plus compact() keeps the answers."""
    from repro.smt.sat import SatSolver

    rng = random.Random(7000 + seed)
    num_vars = rng.randint(3, 7)
    selector = num_vars + 1  # guards some clauses until it is retired
    solver = SatSolver()
    clauses: List[List[int]] = []
    retired = False

    def random_clause() -> List[int]:
        return [rng.choice((1, -1)) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 3))]

    for _step in range(rng.randint(3, 10)):
        for _ in range(rng.randint(1, 4)):
            clause = random_clause()
            if not retired and rng.random() < 0.3:
                clause = [-selector] + clause
            clauses.append(clause)
            solver.add_clause(clause)
        if not retired and rng.random() < 0.2:
            clauses.append([-selector])
            solver.add_clause([-selector])
            solver.compact()
            retired = True
        assumptions = []
        for var in rng.sample(range(1, selector + 1),
                              rng.randint(0, 2)):
            assumptions.append(var if rng.random() < 0.5 else -var)
        models = list(cnf_models(selector, clauses, assumptions))

        if solver.propagate_probe(assumptions):
            assert not models
        assert solver.solve(assumptions) == bool(models)
        if models:
            model = solver.model()
            assert satisfies(model, clauses)
            assert all(model.get(abs(a)) == (a > 0) for a in assumptions)
        unconditional = list(cnf_models(selector, clauses))
        for lit in solver.fixed_literals():
            assert all(m[abs(lit)] == (lit > 0) for m in unconditional)


def linear_pick(solver) -> Optional[int]:
    """The branching rule as a linear scan: the unassigned variable with
    the highest activity, the lowest one on ties, negated."""
    best_var, best_activity = None, -1.0
    for var in range(1, solver.num_vars + 1):
        if (solver._assign[var] is None
                and solver._activity[var] > best_activity):
            best_var, best_activity = var, solver._activity[var]
    return None if best_var is None else -best_var


def test_branching_heap_matches_the_linear_scan():
    """At every decision the heap picks exactly what a scan over all
    variables would, across learned clauses, backjumps, clauses added
    between searches, assumptions and activity rescales past 1e100."""
    from repro.smt.sat import SatSolver

    class ScanChecked(SatSolver):
        picks = 0
        rescales = 0

        def _pick_branch(self):
            expected = linear_pick(self)
            got = super()._pick_branch()
            assert got == expected
            ScanChecked.picks += 1
            return got

        def _bump_activity(self, var):
            if self._activity[var] + self._act_inc > 1e100:
                ScanChecked.rescales += 1
            super()._bump_activity(var)

    rng = random.Random(8000)
    for round_ in range(100):
        num_vars = rng.randint(8, 16)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, num_vars)
                    for _ in range(3)] for _ in range(int(4.3 * num_vars))]
        solver = ScanChecked()
        half = len(clauses) // 2
        for clause in clauses[:half]:
            solver.add_clause(clause)
        if round_ % 2 == 0:
            # Give every variable some activity and put the increment just
            # under the rescale threshold: the first conflict rescales while
            # unassigned variables hold activity, so their heap entries
            # must be rebuilt.
            solver._activity = [rng.uniform(0, 1e99)
                                for _ in solver._activity]
            solver._act_inc = 9e99
            solver._rebuild_heap()
        if solver.solve():
            assert satisfies(solver.model(), clauses[:half])
        for clause in clauses[half:]:
            solver.add_clause(clause)
        assumption = rng.choice((1, -1)) * rng.randint(1, num_vars)
        if solver.solve([assumption]):
            assert satisfies(solver.model(), clauses + [[assumption]])

    # Pigeonhole 5 -> 4: unsatisfiable, a long search.
    solver = ScanChecked()
    solver._act_inc = 1e99

    def hole(i, j):
        return 4 * i + j + 1

    for i in range(5):
        solver.add_clause([hole(i, j) for j in range(4)])
    for j in range(4):
        for a in range(5):
            for b in range(a + 1, 5):
                solver.add_clause([-hole(a, j), -hole(b, j)])
    assert not solver.solve()
    assert ScanChecked.rescales > 10
    assert ScanChecked.picks > 500


# ---------------------------------------------------------------------------
# context-layer unit tests (selector retirement, compaction, resets)
# ---------------------------------------------------------------------------


def test_sat_compact_drops_retired_selector_clauses():
    from repro.smt.sat import SatSolver

    solver = SatSolver()
    selector = 1
    for clause in ([-selector, 2, 3], [-selector, -2, 3], [4, 5]):
        assert solver.add_clause(clause)
    before = solver.num_clauses
    assert solver.add_clause([-selector])  # retire the selector
    removed = solver.compact()
    assert removed == 2
    assert solver.num_clauses == before - 2
    assert solver.solve()  # still consistent afterwards


def test_sat_propagate_probe_detects_forced_conflict():
    from repro.smt.sat import SatSolver

    solver = SatSolver()
    solver.add_clause([1, 2])
    solver.add_clause([-2])        # forces 1
    assert not solver.propagate_probe(())          # consistent
    assert solver.propagate_probe((-1,))           # assumption conflicts
    assert not solver.propagate_probe((3,))        # free assumption is fine
    # probing must not leave residual assignments behind
    assert solver.solve((-1,)) is False
    assert solver.solve((1,)) is True


def test_sat_learns_clauses_under_search():
    """A formula that genuinely requires search records learned clauses
    (the counter behind SolverStats.clauses_learned)."""
    from repro.smt.sat import SatSolver

    solver = SatSolver()
    # Pigeonhole 3->2: forces conflicts and clause learning.
    def v(i, j):
        return 2 * i + j + 1
    for i in range(3):
        solver.add_clause([v(i, 0), v(i, 1)])
    for j in range(2):
        for a in range(3):
            for b in range(a + 1, 3):
                solver.add_clause([-v(a, j), -v(b, j)])
    assert not solver.solve()
    assert solver.num_learned > 0


def test_context_reset_preserves_verdicts(monkeypatch):
    """Forcing constant context resets (variable cap of 1) must not change
    any verdict — the lemma memo rebuilds each context's knowledge."""
    from repro.smt import context as context_mod

    gen = FormulaGen(random.Random(6000))
    hyps, goals = gen.batch()
    expected = incremental_solver().check_implication_batch(hyps, goals)

    monkeypatch.setattr(context_mod, "RESET_VAR_LIMIT", 1)
    churn = incremental_solver(cache_results=False)
    assert churn.check_implication_batch(hyps, goals) == expected

    ctx = churn.contexts.context_for(
        __import__("repro.logic.terms", fromlist=["conj"]).conj(*hyps),
        churn.stats)
    assert ctx.resets > 0, "the var cap should have forced at least one reset"

    # A reset drops the root theory state with the SAT solver; the next
    # theory check builds a new one from the rebuilt solver's level-0 trail.
    root = ctx.root_state()
    assert ctx.root_state() is root
    ctx._reset()
    rebuilt = ctx.root_state()
    assert rebuilt is not root and rebuilt.cc is None
    assert rebuilt.literals == root.literals
    assert rebuilt.check([]).satisfiable == root.check([]).satisfiable
    assert rebuilt.cc is not None


def test_compaction_happens_across_a_long_batch():
    """Retiring many goals in one context triggers periodic compaction:
    the clause database stays bounded by live clauses, not total history."""
    x = Var("x", INT)
    hyps = [BinOp("<", IntLit(0), x, BOOL)]
    goals = [BinOp("<", IntLit(-i), x, BOOL) for i in range(1, 30)]
    solver = incremental_solver(cache_results=False)
    assert solver.check_implication_batch(hyps, goals) == [True] * 29
    ctx = solver.contexts.context_for(hyps[0], solver.stats)
    assert ctx.goals_checked == 29
    # 29 retirements at COMPACT_EVERY=8 -> at least 3 compactions ran; the
    # clause DB must not retain a guarded clause per historical goal.
    assert ctx.sat.num_clauses < 2 * len(goals)


def test_unknown_verdict_not_cached_as_sat():
    """A budget-exhausted incremental query is UNKNOWN — reported exactly
    like the fresh engine's UNKNOWN and never cached, least of all as a
    definitive SAT answer (regression: a poisoned formula cache would make
    is_satisfiable claim a model exists for a valid implication)."""
    from repro.logic.terms import conj, implies, neg

    x = Var("x", INT)
    hyps = []
    goal = BinOp("=>",
                 BinOp("||", BinOp("<", x, IntLit(1), BOOL),
                       BinOp("<", x, IntLit(2), BOOL), BOOL),
                 BinOp("<", x, IntLit(3), BOOL), BOOL)
    formula = neg(implies(conj(), goal))

    verdicts = {}
    for mode, engine in SOLVERS.items():
        solver = engine(max_theory_iterations=1)
        assert solver.check_implication(hyps, goal) is False  # budget, not proof
        verdicts[mode] = solver.check(formula)  # asked again, not cached
        assert solver.stats.cache_hits == 0
        assert solver.stats.giveups == 2
    assert verdicts["incremental"] == verdicts["fresh"] == Result.UNKNOWN


class TestSolverConstruction:
    def test_workspace_builds_solver_from_options(self):
        from repro.core.config import CheckConfig, SolverOptions
        from repro.core.workspace import Workspace

        workspace = Workspace(CheckConfig(
            solver=SolverOptions(context_cache_limit=7)))
        assert isinstance(workspace.solver, Solver)
        assert workspace.solver.contexts.limit == 7

    def test_session_uses_injected_solver(self):
        """A caller-supplied solver (the seam a test fake uses) serves
        every query of the session."""
        from repro.core.session import Session

        solver = Solver(context_cache_limit=7)
        session = Session(solver=solver)
        assert session.solver is solver
        assert session.check_source(
            "function abs(x: number): {v: number | 0 <= v} {\n"
            "  if (x < 0) { return 0 - x; }\n"
            "  return x;\n"
            "}\n").ok
        assert solver.stats.queries > 0
