"""Tests for the raw-speed layer: hash-consed terms, memoised traversals,
exact constant folding and integer LIA.

The constant-folding tests pin the documented *truncating* semantics of
``/`` and ``%`` on integer literals (round toward zero, remainder carries
the dividend's sign, ``a == b*q + r``) — the historical fold went through
float division, which rounds to even and silently corrupts quotients past
2**53.
"""

import copy
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.core.config import CheckConfig
from repro.core.liquid.qualifiers import Qualifier, QualifierPool, STAR
from repro.core.session import Session
from repro.logic import eq, le, lt, simplify, var
from repro.logic.sorts import ANY, BOOL, BV32, FUN, INT, REF, STR, Sort
from repro.logic.terms import (
    VALUE_VAR,
    App,
    BinOp,
    BoolLit,
    Field,
    IntLit,
    Ite,
    StrLit,
    UnOp,
    Var,
    clear_memos,
    expr_size,
    free_vars,
    intern_stats,
    substitute,
)
from repro.smt import lia

NODE_CLASSES = (Var, IntLit, BoolLit, StrLit, App, Field, BinOp, UnOp, Ite)


# ---------------------------------------------------------------------------
# _fold_int: exact truncating division and remainder
# ---------------------------------------------------------------------------


class TestConstantFolding:
    @pytest.mark.parametrize("a,b,quotient", [
        (7, 2, 3), (7, -2, -3), (-7, 2, -3), (-7, -2, 3),
        (6, 3, 2), (-6, 3, -2), (1, 2, 0), (-1, 2, 0),
    ])
    def test_division_truncates_toward_zero(self, a, b, quotient):
        folded = simplify(BinOp("/", IntLit(a), IntLit(b)))
        assert folded == IntLit(quotient)

    @pytest.mark.parametrize("a,b,remainder", [
        (7, 2, 1), (7, -2, 1), (-7, 2, -1), (-7, -2, -1),
        (6, 3, 0), (-6, 3, 0),
    ])
    def test_remainder_carries_dividend_sign(self, a, b, remainder):
        folded = simplify(BinOp("%", IntLit(a), IntLit(b)))
        assert folded == IntLit(remainder)

    def test_division_is_exact_past_float_precision(self):
        # 2**60 + 1 is not representable as a float; the old float-division
        # fold returned an off-by-one quotient here.
        a = 2 ** 60 + 1
        assert simplify(BinOp("/", IntLit(a), IntLit(2))) == IntLit(2 ** 59)
        assert simplify(BinOp("/", IntLit(-a), IntLit(2))) == IntLit(-(2 ** 59))
        assert simplify(BinOp("%", IntLit(a), IntLit(2))) == IntLit(1)
        assert simplify(BinOp("%", IntLit(-a), IntLit(2))) == IntLit(-1)

    def test_division_by_zero_is_not_folded(self):
        expr = BinOp("/", IntLit(1), IntLit(0))
        assert simplify(expr) is expr

    def test_invariant_a_equals_bq_plus_r(self):
        rng = random.Random(0)
        for _ in range(500):
            a = rng.randint(-2 ** 70, 2 ** 70)
            b = rng.randint(1, 2 ** 40) * rng.choice((1, -1))
            q = simplify(BinOp("/", IntLit(a), IntLit(b))).value
            r = simplify(BinOp("%", IntLit(a), IntLit(b))).value
            assert a == b * q + r
            assert abs(r) < abs(b)
            assert r == 0 or (r > 0) == (a > 0)


def _eval_ground(e):
    """Big-int reference evaluation of a ground arithmetic term, with the
    same truncating semantics the fold documents; None where undefined."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, UnOp) and e.op == "-":
        v = _eval_ground(e.operand)
        return None if v is None else -v
    if isinstance(e, BinOp):
        a, b = _eval_ground(e.left), _eval_ground(e.right)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/" and b != 0:
            q = abs(a) // abs(b)
            return q if (a < 0) == (b < 0) else -q
        if e.op == "%" and b != 0:
            r = abs(a) % abs(b)
            return -r if a < 0 else r
    return None


class TestSimplifyGroundProperty:
    def test_simplify_matches_bigint_evaluation(self):
        rng = random.Random(20260807)

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                return IntLit(rng.randint(-2 ** 60, 2 ** 60))
            op = rng.choice(["+", "-", "*", "/", "%"])
            if rng.random() < 0.1:
                return UnOp("-", build(depth - 1))
            return BinOp(op, build(depth - 1), build(depth - 1))

        for _ in range(300):
            term = build(4)
            expected = _eval_ground(term)
            folded = simplify(term)
            if expected is not None:
                assert isinstance(folded, IntLit)
                assert folded.value == expected


# ---------------------------------------------------------------------------
# hash-consing invariants
# ---------------------------------------------------------------------------


class TestHashConsing:
    def test_structurally_equal_terms_are_identical(self):
        a = BinOp("+", Var("x"), IntLit(1))
        b = BinOp("+", Var("x"), IntLit(1))
        assert a is b
        assert UnOp("!", a) is UnOp("!", b)

    def test_keyword_and_default_arguments_normalise(self):
        assert Var("x") is Var(name="x")

    def test_interning_counts_hits(self):
        before = intern_stats()["hits"]
        Var("hit-counter-probe")
        Var("hit-counter-probe")
        assert intern_stats()["hits"] > before

    def test_intern_counts_repeat_in_fresh_processes(self):
        """Terms hash by address, so a scan over a *set* of terms that stops
        early builds a different number of terms from run to run; nothing
        the checker constructs may depend on set order."""
        root = pathlib.Path(__file__).resolve().parent.parent
        port = root / "benchmarks" / "programs" / "transducers.rsc"
        script = ("from repro import Session\n"
                  "from repro.logic.terms import intern_stats\n"
                  f"assert Session().check_file({str(port)!r}).ok\n"
                  "stats = intern_stats()\n"
                  "print(stats['hits'], stats['misses'])\n")
        counts = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"),
                       PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            counts.add(proc.stdout.strip())
        assert len(counts) == 1, counts

    def test_pickle_round_trip_reinterns(self):
        term = BinOp("<", Var("x"), BinOp("+", Var("y"), IntLit(7)))
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term

    @pytest.mark.parametrize("cls", NODE_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_node_classes_use_identity_slots(self, cls):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__
        assert cls.__ne__ is object.__ne__

    @pytest.mark.parametrize("term", [
        Var("x"),
        Var("n", INT),  # a non-default sort
        App("len", (Var("a", REF),), INT),
        Ite(BinOp("<", Var("i", INT), IntLit(0), BOOL), StrLit("neg"),
            Field(Var("o", REF), "tag", STR), STR),
        UnOp("!", BoolLit(True), BOOL),
    ], ids=str)
    def test_copy_and_pickle_preserve_identity(self, term):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term

    @pytest.mark.parametrize("sort", [INT, BOOL, STR, BV32, REF, FUN, ANY],
                             ids=str)
    def test_sorts_round_trip_to_the_module_constant(self, sort):
        assert pickle.loads(pickle.dumps(sort)) is sort
        assert copy.deepcopy(sort) is sort

    def test_sort_uses_identity_slots(self):
        assert Sort.__hash__ is object.__hash__
        assert Sort.__eq__ is object.__eq__

    def test_clear_memos_preserves_results(self):
        """Recomputation from empty memo tables is the memo layer's
        reference: every traversal must return the same answer."""
        term = BinOp("&&", lt(var("x"), IntLit(3)),
                     eq(var("y"), BinOp("+", IntLit(1), IntLit(1))))
        fv, size, simplified = free_vars(term), expr_size(term), simplify(term)
        clear_memos()
        assert free_vars(term) == fv
        assert expr_size(term) == size
        assert simplify(term) is simplified

    def test_memoisation_toggle_preserves_results(self):
        """The memos are always on; a cold run is one from emptied memo
        tables, and the warm (memo-hit) run must agree with it."""
        template = lt(var("a"), BinOp("+", var("b"), IntLit(2)))
        term = substitute(template, {"b": IntLit(5)})
        clear_memos()
        cold = simplify(term)
        assert substitute(template, {"b": IntLit(5)}) is term
        assert simplify(term) is cold

    def test_deep_terms_do_not_recurse(self):
        term = IntLit(0)
        for i in range(5000):
            term = BinOp("+", term, Var(f"v{i % 7}"))
        assert len(free_vars(term)) == 7
        assert expr_size(term) == 10001
        assert str(term).count("+") == 5000


# ---------------------------------------------------------------------------
# deep nesting through the parser: a diagnostic, not a RecursionError
# ---------------------------------------------------------------------------


class TestDeepNesting:
    def test_deeply_parenthesised_source_yields_diagnostic(self):
        depth = 6000
        source = ("function f(): number { return "
                  + "(" * depth + "1" + ")" * depth + "; }")
        result = Session(CheckConfig()).check_source(source,
                                                     filename="deep.rsc")
        assert not result.ok
        assert any(d.code in ("RSC-INT-001", "RSC-PARSE-001")
                   for d in result.diagnostics)


# ---------------------------------------------------------------------------
# qualifier pool: term-keyed dedup, precomputed has_star
# ---------------------------------------------------------------------------


class TestQualifierPool:
    def test_distinct_templates_with_colliding_renderings_are_kept(self):
        # str(Var("true")) == str(BoolLit(True)) == "true"; the historical
        # str(...)-keyed dedup silently dropped one of them.
        pool = QualifierPool(qualifiers=[])
        pool.add(Qualifier(Var("true")))
        pool.add(Qualifier(BoolLit(True)))
        assert len(pool.qualifiers) == 2

    def test_identical_templates_are_deduplicated(self):
        pool = QualifierPool(qualifiers=[])
        pool.add(Qualifier(le(IntLit(0), VALUE_VAR)))
        pool.add(Qualifier(le(IntLit(0), VALUE_VAR)))
        assert len(pool.qualifiers) == 1

    def test_has_star_is_precomputed(self):
        starred = Qualifier(eq(VALUE_VAR, STAR))
        plain = Qualifier(le(IntLit(0), VALUE_VAR))
        assert starred.has_star()
        assert not plain.has_star()
        assert starred._has_star is True
        assert plain._has_star is False


# ---------------------------------------------------------------------------
# LIA: integer fast path vs the Fraction reference
# ---------------------------------------------------------------------------


class TestIntegerLia:
    def test_default_seeding_is_integer(self):
        e = lia.LinExpr.variable("x").add(lia.LinExpr.constant(3), -2)
        assert all(isinstance(c, int) for c in e.coeffs.values())
        assert isinstance(e.const, int)

    def test_gcd_normalisation_is_exact(self):
        c = lia.LinExpr({"x": 6, "y": -9}, 12)
        n = lia._gcd_normalised(c)
        assert n.coeffs == {"x": 2, "y": -3} and n.const == 4
        # inexact constant division: left untouched
        c2 = lia.LinExpr({"x": 6, "y": -9}, 10)
        assert lia._gcd_normalised(c2) is c2

    def test_int_and_fraction_paths_agree(self):
        """The same problems seeded with ``Fraction`` coefficients (the
        reference arithmetic, which also skips the gcd normalisation) give
        the same verdict, conflict mask and give-up flag."""
        rng = random.Random(11)
        keys = ["x", "y", "z"]

        def build_problem():
            constraints = []
            for _ in range(rng.randint(1, 8)):
                coeffs = {k: rng.randint(-5, 5)
                          for k in rng.sample(keys, rng.randint(1, 3))}
                constraints.append((coeffs, rng.randint(-10, 10),
                                    rng.choice(["le", "lt", "eq", "neq"])))
            return constraints

        def solve(constraints, number=int):
            problem = lia.LiaProblem()
            for index, (coeffs, const, kind) in enumerate(constraints):
                lhs = lia.LinExpr({}, number(const))
                for k, c in coeffs.items():
                    lhs = lhs.add(lia.LinExpr({k: number(1)}, number(0)), c)
                getattr(problem, "add_" + kind)(lhs, lia.LinExpr({}, number(0)),
                                                tag=1 << index)
            return (lia.is_satisfiable(problem), problem.conflict,
                    problem.gave_up)

        for _ in range(300):
            constraints = build_problem()
            fast = solve(constraints)
            reference = solve(constraints, Fraction)
            # Same verdict and the same explained conflict; the conflict
            # names a subset that is unsatisfiable on its own.
            assert fast == reference
            sat, conflict, _gave_up = fast
            if not sat:
                core = [c for index, c in enumerate(constraints)
                        if conflict >> index & 1]
                assert core and solve(core)[0] is False
