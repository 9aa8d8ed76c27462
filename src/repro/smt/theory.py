"""Theory combination: decide conjunctions of theory literals.

The lazy-SMT loop hands this module a set of *theory literals* — pairs of
(atom expression, polarity) extracted from a propositional model — and asks
whether their conjunction is satisfiable in the combined theory of equality
with uninterpreted functions, linear integer arithmetic and constant
bit-masks.

The combination is a simplified Nelson–Oppen scheme:

1. run congruence closure over all literals; equalities merge classes and
   constant clashes / violated disequalities are conflicts;
2. canonicalise every term by its EUF representative and hand arithmetic
   literals to the Fourier–Motzkin LIA solver (classes containing an integer
   constant are pinned to that value);
3. hand bit-mask literals (``mask(t, c)`` and ``(t & c) op 0``) to the
   bit-mask solver, again keyed by EUF representative.

Equalities discovered by LIA are not propagated back to EUF; for the VC
shapes RSC produces this direction is not needed, and omitting it only makes
the solver prove fewer formulas valid (sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.logic import builtins
from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    UnOp,
    memoisation_enabled,
)
from repro.smt.bvmask import BvMaskSolver
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import LiaProblem, LinExpr, is_satisfiable, linearize

#: A theory literal: an atom and its polarity in the current assignment.
TheoryLiteral = Tuple[Expr, bool]

_CMP_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}
_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")

#: Verdict memo for :func:`check_literals`, keyed by the exact literal
#: tuple (order-preserving, so a hit replays precisely the call that was
#: made before — no reliance on the solvers being order-insensitive).
#: Theory checks are pure functions of their input, and with hash-consed
#: terms the key is a tuple of pointers; core minimisation and repeated
#: blocking-clause loops re-check the same conjunctions constantly.
#: Cleared by :func:`repro.logic.terms.clear_memos`.
_CHECK_MEMO: Dict[Tuple[TheoryLiteral, ...], bool] = {}
_CHECK_MEMO_LIMIT = 100_000


def _clear_local_memos() -> None:
    _CHECK_MEMO.clear()


@dataclass
class TheoryResult:
    satisfiable: bool
    #: when unsatisfiable, a (possibly minimised) subset of the input literals
    #: that is already inconsistent; used to build the blocking clause.
    core: Optional[List[TheoryLiteral]] = None
    #: :func:`check_literals` calls spent minimising the core (every call
    #: :func:`check_with_core` makes after its first).
    minimise_checks: int = 0


def check_literals(literals: Sequence[TheoryLiteral]) -> bool:
    """Satisfiability of the conjunction of theory literals (memoised)."""
    if not memoisation_enabled():
        return _check_literals_uncached(literals)
    key = tuple(literals)
    hit = _CHECK_MEMO.get(key)
    if hit is not None:
        return hit
    result = _check_literals_uncached(key)
    if len(_CHECK_MEMO) < _CHECK_MEMO_LIMIT:
        _CHECK_MEMO[key] = result
    return result


def _check_literals_uncached(literals: Sequence[TheoryLiteral]) -> bool:
    lits = list(literals)

    cc = CongruenceClosure()
    true_const = BoolLit(True)
    false_const = BoolLit(False)
    cc.assert_neq(true_const, false_const)

    arith: List[Tuple[str, Expr, Expr]] = []   # (op, lhs, rhs) with op already polarised
    mask_lits: List[Tuple[Expr, int, bool]] = []  # (base term, mask, positive)

    for atom, polarity in lits:
        atom = _strip_not(atom, polarity)
        if atom is None:
            return False  # literal was a constant false
        expr, pol = atom
        if isinstance(expr, BoolLit):
            if expr.value != pol:
                return False
            continue
        if isinstance(expr, BinOp) and expr.op in _CMP_OPS:
            op = expr.op if pol else _CMP_NEGATION[expr.op]
            lhs, rhs = expr.left, expr.right
            masked = _as_mask_test(op, lhs, rhs)
            if masked is not None:
                mask_lits.append(masked)
                cc.add_term(lhs)
                cc.add_term(rhs)
                continue
            if op == "=":
                cc.assert_eq(lhs, rhs)
            elif op == "!=":
                cc.assert_neq(lhs, rhs)
            else:
                cc.add_term(lhs)
                cc.add_term(rhs)
            arith.append((op, lhs, rhs))
            continue
        # Boolean-sorted application / variable / field access.
        mask_atom = _as_mask_builtin(expr)
        if mask_atom is not None:
            mask_lits.append((mask_atom[0], mask_atom[1], pol))
        cc.assert_eq(expr, true_const if pol else false_const)

    if cc.in_conflict:
        return False

    # ---- LIA -------------------------------------------------------------
    def opaque(term: Expr) -> Hashable:
        return ("t", cc.representative(term))

    def const_of(term: Expr):
        return cc.int_value_of(term)

    problem = LiaProblem()
    for op, lhs, rhs in arith:
        l = linearize(lhs, opaque, const_of)
        r = linearize(rhs, opaque, const_of)
        if op == "<":
            problem.add_lt(l, r)
        elif op == "<=":
            problem.add_le(l, r)
        elif op == ">":
            problem.add_lt(r, l)
        elif op == ">=":
            problem.add_le(r, l)
        elif op == "=":
            problem.add_eq(l, r)
        elif op == "!=":
            problem.add_neq(l, r)

    # Pin every class containing an integer constant to that constant, and
    # link every member term's opaque variable to it.
    pinned: dict[Hashable, int] = {}
    for rep, members in cc.classes().items():
        value = None
        for m in members:
            if isinstance(m, IntLit):
                value = m.value
                break
        if value is None:
            continue
        key = ("t", rep)
        pinned[key] = value
        problem.add_eq(LinExpr.variable(key), LinExpr.constant(value))

    if not is_satisfiable(problem):
        return False

    # ---- bit-masks ---------------------------------------------------------
    if mask_lits:
        bv = BvMaskSolver()
        for base, mask, positive in mask_lits:
            key = ("t", cc.representative(base))
            bv.assert_mask(key, mask, positive)
            fixed = cc.int_value_of(base)
            if fixed is not None:
                bv.assert_value(key, fixed)
        if not bv.check():
            return False

    return True


#: Cap on the number of `check_literals` calls one core minimisation may
#: spend.  Bounding by *work* instead of by input size means even very wide
#: conflicts get partially minimised — small cores make better blocking
#: clauses and far more reusable lemmas for the incremental context memo.
MINIMISE_CHECK_BUDGET = 150


def check_with_core(literals: Sequence[TheoryLiteral]) -> TheoryResult:
    """Check a conjunction; on conflict, greedily minimise an unsat core."""
    lits = list(literals)
    if check_literals(lits):
        return TheoryResult(True, None)
    core = list(lits)
    budget = MINIMISE_CHECK_BUDGET
    i = 0
    while i < len(core) and budget > 0:
        trial = core[:i] + core[i + 1:]
        if not trial:
            break
        budget -= 1
        if not check_literals(trial):
            core = trial
        else:
            i += 1
    return TheoryResult(False, core, MINIMISE_CHECK_BUDGET - budget)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _strip_not(atom: Expr, polarity: bool) -> Optional[Tuple[Expr, bool]]:
    """Normalise away leading negations; ``None`` signals constant falsehood."""
    while isinstance(atom, UnOp) and atom.op == "!":
        atom = atom.operand
        polarity = not polarity
    if isinstance(atom, BoolLit) and atom.value != polarity:
        return None
    return atom, polarity


def _as_mask_test(op: str, lhs: Expr, rhs: Expr) -> Optional[Tuple[Expr, int, bool]]:
    """Recognise ``(t & c) op 0`` (or symmetric) as a bit-mask literal."""
    if op not in ("=", "!="):
        return None
    if isinstance(rhs, IntLit) and rhs.value == 0:
        band = lhs
    elif isinstance(lhs, IntLit) and lhs.value == 0:
        band = rhs
    else:
        return None
    if not (isinstance(band, BinOp) and band.op == "&"):
        return None
    if isinstance(band.right, IntLit):
        base, mask = band.left, band.right.value
    elif isinstance(band.left, IntLit):
        base, mask = band.right, band.left.value
    else:
        return None
    positive = op == "!="
    return base, mask, positive


def _as_mask_builtin(expr: Expr) -> Optional[Tuple[Expr, int]]:
    """Recognise the ``mask(t, c)`` builtin with a constant mask."""
    if isinstance(expr, App) and expr.fn == builtins.MASK and len(expr.args) == 2:
        base, mask = expr.args
        if isinstance(mask, IntLit):
            return base, mask.value
    return None
