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

Unsat cores are explained, not searched for.  Literal ``i`` of the input is
bit ``i`` of a mask.  EUF conflicts come with the literals behind them (see
:mod:`repro.smt.euf`).  Each LIA constraint is tagged with its literal's bit,
plus the EUF explanation of every term it reads through a class
representative or a class constant, so the contradiction Fourier–Motzkin
derives names its own literals (see :mod:`repro.smt.lia`).  Bit-mask
literals are decided per EUF class, and a conflict names the class's
bit-mask literals and the explanations of their base terms.
:func:`check_with_core` therefore decides and explains a conflict in one
pass; the core is sound but not necessarily minimal.
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
)
from repro.smt.bvmask import BvMaskSolver
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import LiaProblem, LinExpr, is_satisfiable, linearize

#: A theory literal: an atom and its polarity in the current assignment.
TheoryLiteral = Tuple[Expr, bool]

_CMP_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}
_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")


@dataclass
class TheoryResult:
    satisfiable: bool
    #: when unsatisfiable, the subset of the input literals the conflict was
    #: derived from; used to build the blocking clause.
    core: Optional[List[TheoryLiteral]] = None
    #: the "satisfiable" answer is really "unknown": Fourier–Motzkin gave up.
    gave_up: bool = False


def check_literals(literals: Sequence[TheoryLiteral]) -> bool:
    """Satisfiability of the conjunction of theory literals (sound
    "unsatisfiable" answers only: a give-up answers True)."""
    return check_with_core(literals).satisfiable


def check_with_core(literals: Sequence[TheoryLiteral]) -> TheoryResult:
    """Check a conjunction; on conflict, return the literals it came from."""
    lits = list(literals)
    conflict, gave_up = _explained_conflict(lits)
    if conflict is None:
        return TheoryResult(True, None, gave_up)
    return TheoryResult(False, [lit for index, lit in enumerate(lits)
                                if conflict >> index & 1])


def _explained_conflict(
        lits: List[TheoryLiteral]) -> Tuple[Optional[int], bool]:
    """``(conflict, gave_up)``: the bitmask of the literals behind a
    conflict (None when satisfiable), and whether a satisfiable answer
    comes from a Fourier–Motzkin give-up."""
    cc = CongruenceClosure()
    true_const = BoolLit(True)
    false_const = BoolLit(False)
    cc.assert_neq(true_const, false_const)

    # (op, lhs, rhs, literal bit) with op already polarised
    arith: List[Tuple[str, Expr, Expr, int]] = []
    # (base term, mask, positive, literal bit)
    mask_lits: List[Tuple[Expr, int, bool, int]] = []

    for index, (atom, polarity) in enumerate(lits):
        bit = 1 << index
        stripped = _strip_not(atom, polarity)
        if stripped is None:
            return bit, False  # literal was a constant false
        expr, pol = stripped
        if isinstance(expr, BoolLit):
            continue
        if isinstance(expr, BinOp) and expr.op in _CMP_OPS:
            op = expr.op if pol else _CMP_NEGATION[expr.op]
            lhs, rhs = expr.left, expr.right
            masked = _as_mask_test(op, lhs, rhs)
            if masked is not None:
                mask_lits.append((*masked, bit))
                cc.add_term(lhs)
                cc.add_term(rhs)
                continue
            if op == "=":
                cc.assert_eq(lhs, rhs, bit)
            elif op == "!=":
                cc.assert_neq(lhs, rhs, bit)
            else:
                cc.add_term(lhs)
                cc.add_term(rhs)
            arith.append((op, lhs, rhs, bit))
            continue
        # Boolean-sorted application / variable / field access.
        mask_atom = _as_mask_builtin(expr)
        if mask_atom is not None:
            mask_lits.append((mask_atom[0], mask_atom[1], pol, bit))
        cc.assert_eq(expr, true_const if pol else false_const, bit)

    if cc.conflict is not None:
        return cc.conflict, False

    # ---- LIA -------------------------------------------------------------
    # ``reasons`` collects the explanations of the EUF facts one literal's
    # linearisation relies on.
    reasons = 0

    def opaque(term: Expr) -> Hashable:
        nonlocal reasons
        reasons |= cc.explain_representative(term)
        return ("t", cc.representative(term))

    def const_of(term: Expr) -> Optional[int]:
        nonlocal reasons
        value = cc.int_value_of(term)
        if value is not None:
            reasons |= cc.explain_value(term)
        return value

    problem = LiaProblem()
    for op, lhs, rhs, bit in arith:
        reasons = bit
        l = linearize(lhs, opaque, const_of)
        r = linearize(rhs, opaque, const_of)
        if op == "<":
            problem.add_lt(l, r, reasons)
        elif op == "<=":
            problem.add_le(l, r, reasons)
        elif op == ">":
            problem.add_lt(r, l, reasons)
        elif op == ">=":
            problem.add_le(r, l, reasons)
        elif op == "=":
            problem.add_eq(l, r, reasons)
        elif op == "!=":
            problem.add_neq(l, r, reasons)

    # Pin every class containing an integer constant to that constant.
    for rep, value, why in cc.int_constants():
        problem.add_eq(LinExpr.variable(("t", rep)), LinExpr.constant(value),
                       why)

    if not is_satisfiable(problem):
        return problem.conflict, False

    # ---- bit-masks ---------------------------------------------------------
    # Base terms of different classes are independent, so each class is
    # decided, and explained, on its own.
    by_class: Dict[int, Tuple[BvMaskSolver, int]] = {}
    for base, mask, positive, bit in mask_lits:
        rep = cc.representative(base)
        bv, why = by_class.get(rep) or (BvMaskSolver(), 0)
        why |= bit | cc.explain_representative(base)
        bv.assert_mask(rep, mask, positive)
        fixed = cc.int_value_of(base)
        if fixed is not None:
            why |= cc.explain_value(base)
            bv.assert_value(rep, fixed)
        by_class[rep] = (bv, why)
    for bv, why in by_class.values():
        if not bv.check():
            return why, False

    return None, problem.gave_up


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
