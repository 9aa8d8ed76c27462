"""Tests for the SMT substrate: SAT core, theories, and the combined solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import (
    BinOp,
    INT,
    IntLit,
    StrLit,
    conj,
    disj,
    eq,
    implies,
    le,
    lt,
    ne,
    plus,
    times,
    var,
)
from repro.logic.builtins import impl_of, len_of, mask_of, ttag_of
from repro.logic.terms import Field
from repro.smt import Result, Solver
from repro.smt.bvmask import BvMaskSolver, mask_implies
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import (
    LiaProblem,
    LinExpr,
    is_satisfiable,
    linearize,
)
from repro.smt.sat import SatSolver, solve_cnf


# ---------------------------------------------------------------------------
# SAT core
# ---------------------------------------------------------------------------


class TestSat:
    def test_trivially_sat(self):
        assert solve_cnf([[1], [2]]) == {1: True, 2: True}

    def test_trivially_unsat(self):
        assert solve_cnf([[1], [-1]]) is None

    def test_unit_propagation_chain(self):
        # 1, 1->2, 2->3 ... all forced true
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        model = solve_cnf(clauses)
        assert model and all(model[v] for v in (1, 2, 3, 4))

    def test_requires_search(self):
        clauses = [[1, 2], [-1, 2], [1, -2]]
        model = solve_cnf(clauses)
        assert model and model[1] and model[2]

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        clauses = [[1], [2], [-1, -2]]
        assert solve_cnf(clauses) is None

    def test_php_3_into_2_unsat(self):
        # pigeon i in hole j -> var 2*i + j + 1 (i in 0..2, j in 0..1)
        def v(i, j):
            return 2 * i + j + 1
        clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-v(i1, j), -v(i2, j)])
        assert solve_cnf(clauses) is None

    def test_incremental_blocking_clauses(self):
        solver = SatSolver()
        for clause in [[1, 2, 3]]:
            solver.add_clause(clause)
        seen = set()
        while solver.solve():
            model = solver.model()
            assignment = tuple(sorted((v, val) for v, val in model.items()))
            assert assignment not in seen, "same model returned twice"
            seen.add(assignment)
            blocking = [-v if val else v for v, val in model.items()]
            if not solver.add_clause(blocking):
                break
        assert len(seen) >= 3  # at least the distinct satisfying assignments

    def test_model_satisfies_clauses(self):
        clauses = [[1, -2], [2, 3], [-1, -3], [-2, -3], [1, 2, 3]]
        model = solve_cnf(clauses)
        if model is not None:
            for clause in clauses:
                assert any(model.get(abs(l), False) == (l > 0) for l in clause)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.lists(st.integers(-6, 6).filter(lambda x: x != 0), min_size=1, max_size=4),
    min_size=1, max_size=14))
def test_sat_agrees_with_bruteforce(clauses):
    """The CDCL solver agrees with brute-force enumeration on small CNFs."""
    variables = sorted({abs(l) for c in clauses for l in c})
    model = solve_cnf([list(c) for c in clauses])

    def brute():
        for bits in range(2 ** len(variables)):
            assignment = {v: bool((bits >> i) & 1) for i, v in enumerate(variables)}
            if all(any(assignment[abs(l)] == (l > 0) for l in c) for c in clauses):
                return assignment
        return None

    expected = brute()
    assert (model is None) == (expected is None)
    if model is not None:
        for clause in clauses:
            assert any(model.get(abs(l), True) == (l > 0) for l in clause)


# ---------------------------------------------------------------------------
# EUF congruence closure
# ---------------------------------------------------------------------------


class TestEuf:
    def test_symmetry_transitivity(self):
        cc = CongruenceClosure()
        a, b, c = var("a"), var("b"), var("c")
        cc.assert_eq(a, b)
        cc.assert_eq(b, c)
        assert cc.are_equal(a, c)
        assert not cc.in_conflict

    def test_congruence_rule(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_eq(a, b)
        assert cc.are_equal(len_of(a), len_of(b))

    def test_disequality_conflict(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_neq(a, b)
        cc.assert_eq(a, b)
        assert cc.in_conflict

    def test_distinct_int_constants_conflict(self):
        cc = CongruenceClosure()
        cc.assert_eq(var("x"), IntLit(1))
        cc.assert_eq(var("x"), IntLit(2))
        assert cc.in_conflict

    def test_distinct_string_constants_conflict(self):
        cc = CongruenceClosure()
        cc.assert_eq(ttag_of(var("x")), StrLit("number"))
        cc.assert_eq(ttag_of(var("x")), StrLit("string"))
        assert cc.in_conflict

    def test_int_value_of(self):
        cc = CongruenceClosure()
        cc.assert_eq(Field(var("z"), "w"), IntLit(3))
        assert cc.int_value_of(Field(var("z"), "w")) == 3

    def test_nested_congruence(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_eq(a, b)
        assert cc.are_equal(plus(len_of(a), IntLit(1)), plus(len_of(b), IntLit(1)))

    def test_explain_congruence_chain(self):
        """a = b, b = c |- len(a) = len(c), explained by the chain alone."""
        cc = CongruenceClosure()
        a, b, c, d = var("a"), var("b"), var("c"), var("d")
        cc.assert_eq(a, b, 1 << 0)
        cc.assert_eq(d, IntLit(5), 1 << 1)
        cc.assert_eq(b, c, 1 << 2)
        assert cc.are_equal(len_of(a), len_of(c))
        assert cc.explain(len_of(a), len_of(c)) == 0b101
        assert cc.explain(a, a) == 0

    def test_explain_nested_congruence(self):
        """Congruence edges expand into the explanations of their
        arguments, recursively."""
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_eq(var("z"), IntLit(0), 1 << 0)
        cc.assert_eq(a, b, 1 << 1)
        left = plus(len_of(a), IntLit(1))
        right = plus(len_of(b), IntLit(1))
        assert cc.are_equal(left, right)
        assert cc.explain(left, right) == 0b10

    def test_constant_clash_through_a_chain(self):
        cc = CongruenceClosure()
        x, y, z, u, v = (var(n) for n in "xyzuv")
        cc.assert_eq(x, y, 1 << 0)
        cc.assert_eq(y, IntLit(1), 1 << 1)
        cc.assert_eq(u, v, 1 << 2)
        cc.assert_eq(z, IntLit(2), 1 << 3)
        assert not cc.in_conflict
        cc.assert_eq(x, z, 1 << 4)
        assert cc.conflict == 0b11011

    def test_violated_disequality_is_explained(self):
        cc = CongruenceClosure()
        a, b, c = var("a"), var("b"), var("c")
        cc.assert_neq(a, c, 1 << 0)
        cc.assert_eq(var("p"), var("q"), 1 << 1)
        cc.assert_eq(a, b, 1 << 2)
        cc.assert_eq(b, c, 1 << 3)
        assert cc.conflict == 0b1101

    def test_disequality_violated_by_congruence(self):
        cc = CongruenceClosure()
        a, b = var("a"), var("b")
        cc.assert_neq(len_of(a), len_of(b), 1 << 0)
        cc.assert_eq(a, b, 1 << 1)
        assert cc.conflict == 0b11

    def test_one_constant_per_class(self):
        cc = CongruenceClosure()
        x, y = var("x"), var("y")
        cc.assert_eq(x, y, 1 << 0)
        assert cc.int_value_of(x) is None
        cc.assert_eq(y, IntLit(7), 1 << 1)
        assert cc.int_value_of(x) == 7
        assert cc.explain_value(x) == 0b11
        rep = cc.representative(x)
        assert [(r, v) for r, v, _why in cc.int_constants()] == [(rep, 7)]


# ---------------------------------------------------------------------------
# Linear integer arithmetic
# ---------------------------------------------------------------------------


def _lin(e):
    return linearize(e, opaque=lambda t: str(t))


class TestLia:
    def test_unsat_bounds(self):
        p = LiaProblem()
        x = _lin(var("x"))
        p.add_le(x, LinExpr.constant(3))     # x <= 3
        p.add_lt(LinExpr.constant(5), x)     # x > 5
        assert not is_satisfiable(p)

    def test_sat_chain(self):
        p = LiaProblem()
        x, y = _lin(var("x")), _lin(var("y"))
        p.add_lt(x, y)
        p.add_le(LinExpr.constant(0), x)
        assert is_satisfiable(p)

    def test_strict_integer_tightening(self):
        # 0 < x and x < 1 has no integer solution
        p = LiaProblem()
        x = _lin(var("x"))
        p.add_lt(LinExpr.constant(0), x)
        p.add_lt(x, LinExpr.constant(1))
        assert not is_satisfiable(p)

    def test_equality_and_disequality_conflict(self):
        p = LiaProblem()
        x = _lin(var("x"))
        p.add_eq(x, LinExpr.constant(4))
        p.add_neq(x, LinExpr.constant(4))
        assert not is_satisfiable(p)

    def test_transitive_chain_unsat(self):
        p = LiaProblem()
        x, y, z = (_lin(var(n)) for n in "xyz")
        p.add_le(x, y)
        p.add_le(y, z)
        p.add_lt(z, x)
        assert not is_satisfiable(p)

    def test_linearize_coefficients(self):
        e = plus(times(IntLit(2), var("x")), IntLit(3))
        lin = _lin(e)
        assert lin.const == 3
        assert list(lin.coeffs.values()) == [2]

    def test_nonlinear_is_opaque_but_consistent(self):
        p = LiaProblem()
        prod = _lin(times(var("x"), var("y")))
        p.add_le(prod, LinExpr.constant(10))
        assert is_satisfiable(p)

    # ``Fraction`` seeding is the reference arithmetic: the same algorithm
    # without the integer gcd normalisation.
    @pytest.mark.parametrize("number", [int, Fraction], ids=["int", "fraction"])
    def test_conflict_names_only_contributing_constraints(self, number):
        x, y, z = (LinExpr({n: number(1)}, number(0)) for n in "xyz")
        k = lambda value: LinExpr({}, number(value))
        p = LiaProblem()
        p.add_le(x, y, tag=1 << 0)              # x <= y
        p.add_le(z, k(10), tag=1 << 1)          # unrelated
        p.add_le(y, k(0), tag=1 << 2)           # y <= 0
        p.add_lt(k(0), x, tag=1 << 3)           # x > 0
        p.add_le(k(-5), z, tag=1 << 4)          # unrelated
        assert not is_satisfiable(p)
        assert p.conflict == 0b1101

    @pytest.mark.parametrize("number", [int, Fraction], ids=["int", "fraction"])
    def test_disequality_conflict_unions_both_branches(self, number):
        x, y = (LinExpr({n: number(1)}, number(0)) for n in "xy")
        k = lambda value: LinExpr({}, number(value))
        p = LiaProblem()
        p.add_le(x, k(4), tag=1 << 0)           # x <= 4
        p.add_le(y, k(3), tag=1 << 1)           # unrelated
        p.add_le(k(4), x, tag=1 << 2)           # x >= 4
        p.add_neq(x, k(4), tag=1 << 3)
        assert not is_satisfiable(p)
        assert p.conflict == 0b1101
        assert not p.gave_up

    def test_satisfiable_problem_has_no_conflict(self):
        p = LiaProblem()
        x = _lin(var("x"))
        p.add_le(x, LinExpr.constant(4), tag=1)
        assert is_satisfiable(p)
        assert p.conflict is None and not p.gave_up


# ---------------------------------------------------------------------------
# Constant bit-masks
# ---------------------------------------------------------------------------


class TestBvMask:
    def test_mask_implies(self):
        assert mask_implies(0x800, 0x3C00)
        assert not mask_implies(0x1, 0x3C00)

    def test_positive_negative_conflict(self):
        bv = BvMaskSolver()
        bv.assert_mask("t", 0x800, positive=True)
        bv.assert_mask("t", 0x3C00, positive=False)
        assert not bv.check()

    def test_disjoint_masks_ok(self):
        bv = BvMaskSolver()
        bv.assert_mask("t", 0x1, positive=True)
        bv.assert_mask("t", 0x3C00, positive=False)
        assert bv.check()

    def test_fixed_value(self):
        bv = BvMaskSolver()
        bv.assert_value("t", 0x802)
        bv.assert_mask("t", 0x800, positive=True)
        assert bv.check()
        bv.assert_mask("t", 0x4, positive=True)
        assert not bv.check()

    def test_zero_mask_positive_is_conflict(self):
        bv = BvMaskSolver()
        bv.assert_mask("t", 0, positive=True)
        assert not bv.check()

    def test_independent_terms(self):
        bv = BvMaskSolver()
        bv.assert_mask("t1", 0x800, positive=True)
        bv.assert_mask("t2", 0x800, positive=False)
        assert bv.check()


# ---------------------------------------------------------------------------
# The combined solver (validity / satisfiability)
# ---------------------------------------------------------------------------


class TestSolverValidity:
    def setup_method(self):
        self.solver = Solver()

    def is_valid(self, formula):
        return self.solver.is_valid(formula)

    def test_array_bounds_vc(self):
        a, v = var("a"), var("v")
        vc = implies(lt(IntLit(0), len_of(a)),
                     implies(eq(v, IntLit(0)),
                             conj(le(IntLit(0), v), lt(v, len_of(a)))))
        assert self.is_valid(vc)

    def test_invalid_bounds_vc(self):
        a, i = var("a"), var("i")
        assert not self.is_valid(implies(le(IntLit(0), i), lt(i, len_of(a))))

    def test_path_sensitive_nonempty(self):
        a, v = var("a"), var("v")
        vc = implies(conj(lt(IntLit(0), len_of(a)), eq(v, a)),
                     lt(IntLit(0), len_of(v)))
        assert self.is_valid(vc)

    def test_mask_hierarchy(self):
        f = var("f")
        assert self.is_valid(implies(mask_of(f, IntLit(0x800)),
                                     mask_of(f, IntLit(0x3C00))))
        assert not self.is_valid(implies(mask_of(f, IntLit(0x800)),
                                         mask_of(f, IntLit(0x1))))

    def test_bitand_guard_implies_mask(self):
        f = var("f")
        guard = ne(BinOp("&", f, IntLit(0x800), INT), IntLit(0))
        assert self.is_valid(implies(guard, mask_of(f, IntLit(0x3C00))))

    def test_ttag_distinctness(self):
        x = var("x")
        contradiction = conj(eq(ttag_of(x), StrLit("number")),
                             eq(ttag_of(x), StrLit("string")))
        assert self.solver.check(contradiction) is Result.UNSAT

    def test_disjunction_case_split(self):
        x = var("x")
        vc = implies(disj(eq(x, IntLit(1)), eq(x, IntLit(2))),
                     le(x, IntLit(2)))
        assert self.is_valid(vc)

    def test_loop_invariant_shape(self):
        a, i, v = var("a"), var("i"), var("v")
        vc = implies(conj(le(IntLit(0), i), lt(i, len_of(a)),
                          eq(v, plus(i, IntLit(1)))),
                     le(v, len_of(a)))
        assert self.is_valid(vc)

    def test_congruence_through_len(self):
        a, b = var("a"), var("b")
        vc = implies(conj(eq(a, b), lt(IntLit(0), len_of(a))),
                     lt(IntLit(0), len_of(b)))
        assert self.is_valid(vc)

    def test_uninterpreted_impl_propagation(self):
        t = var("t")
        vc = implies(conj(eq(var("u"), t), impl_of(t, StrLit("I"))),
                     impl_of(var("u"), StrLit("I")))
        assert self.is_valid(vc)

    def test_pinned_nonlinear_product(self):
        """Products of terms with known values are evaluated (used by the
        Field/grid benchmark): w = 3 and h = 7 imply (w+2)*(h+2) = 45."""
        w, h = var("w"), var("h")
        product = times(plus(w, IntLit(2)), plus(h, IntLit(2)))
        vc = implies(conj(eq(w, IntLit(3)), eq(h, IntLit(7))),
                     eq(product, IntLit(45)))
        assert self.is_valid(vc)

    def test_environment_inconsistency(self):
        hyps = [eq(len_of(var("arguments")), IntLit(2)),
                eq(len_of(var("arguments")), IntLit(3))]
        assert self.solver.environment_inconsistent(hyps)

    def test_not_valid_is_not_unsound(self):
        # a formula that is satisfiable but not valid
        x = var("x")
        assert not self.is_valid(eq(x, IntLit(0)))
        assert self.solver.is_satisfiable(eq(x, IntLit(0)))

    def test_implication_caching_consistent(self):
        x = var("x")
        f = implies(lt(x, IntLit(3)), lt(x, IntLit(10)))
        assert self.is_valid(f)
        assert self.is_valid(f)  # cached second call

    def test_check_implication_api(self):
        x = var("x")
        assert self.solver.check_implication([lt(x, IntLit(3))], lt(x, IntLit(5)))
        assert not self.solver.check_implication([lt(x, IntLit(5))], lt(x, IntLit(3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_ground_comparisons_decided_correctly(a, b):
    solver = Solver()
    formula = lt(IntLit(a), IntLit(b))
    assert solver.is_valid(formula) == (a < b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_mask_implication_matches_bit_arithmetic(sub, sup):
    """mask(v, sub) => mask(v, sup) is valid iff sub's bits are within sup's
    (and sub is non-empty)."""
    solver = Solver()
    f = var("f")
    valid = solver.is_valid(implies(mask_of(f, IntLit(sub)),
                                    mask_of(f, IntLit(sup))))
    assert valid == mask_implies(sub, sup) or (sub == 0)


# ---------------------------------------------------------------------------
# result-cache eviction (LRU, not fill-and-stop)
# ---------------------------------------------------------------------------


class TestSolverCacheEviction:
    """A saturated query cache must evict least-recently-used entries, not
    silently stop caching (the pre-LRU behaviour): recent queries stay
    served from the cache even after the limit is reached."""

    @staticmethod
    def formula(i):
        return lt(var("x"), IntLit(i))

    def test_cache_never_exceeds_limit(self):
        solver = Solver(cache_size_limit=8)
        for i in range(40):
            solver.check(self.formula(i))
        assert solver.cache_size == 8

    def test_recent_queries_hit_after_saturation(self):
        solver = Solver(cache_size_limit=8)
        for i in range(40):
            solver.check(self.formula(i))
        hits = solver.stats.cache_hits
        queries = solver.stats.queries
        # The 8 most recent formulas are still cached...
        for i in range(32, 40):
            solver.check(self.formula(i))
        assert solver.stats.cache_hits == hits + 8
        assert solver.stats.queries == queries
        # ...and the evicted ones are genuinely gone (re-solved, re-cached).
        solver.check(self.formula(0))
        assert solver.stats.queries == queries + 1

    def test_lookup_refreshes_recency(self):
        solver = Solver(cache_size_limit=2)
        a, b, c = self.formula(1), self.formula(2), self.formula(3)
        solver.check(a)
        solver.check(b)
        solver.check(a)       # refresh a: b is now the LRU entry
        solver.check(c)       # evicts b, not a
        queries = solver.stats.queries
        solver.check(a)
        assert solver.stats.queries == queries, "a should still be cached"
        solver.check(b)
        assert solver.stats.queries == queries + 1, "b should be evicted"

    def test_zero_limit_disables_storage(self):
        solver = Solver(cache_size_limit=0)
        solver.check(self.formula(1))
        solver.check(self.formula(1))
        assert solver.cache_size == 0
        assert solver.stats.cache_hits == 0
        assert solver.stats.queries == 2

    def test_incremental_mode_cache_also_bounded(self):
        solver = Solver(cache_size_limit=4)
        hyps = [lt(IntLit(0), var("x"))]
        goals = [lt(var("x"), IntLit(i)) for i in range(12)]
        solver.check_implication_batch(hyps, goals)
        assert solver.cache_size == 4
        queries = solver.stats.queries
        assert solver.check_implication_batch(hyps, goals[-4:]) \
            == [False, False, False, False]  # 0 < x never bounds x above
        assert solver.stats.queries == queries
