"""Light-weight syntactic simplification of logical expressions.

The simplifier is used before formulas are handed to the SMT layer and by the
liquid fixpoint solver to keep intermediate predicates small.  It performs
constant folding, boolean unit laws and a handful of arithmetic identities; it
never changes the meaning of a formula.

Integer constant folding is *exact* (arbitrary-precision) and uses one
documented convention throughout: ``/`` is truncating division (round toward
zero, as in C and in JavaScript's ``Math.trunc(a / b)``) and ``%`` is the
matching remainder, so ``a == b * (a / b) + a % b`` holds for every folded
pair and the remainder takes the sign of the dividend.  The theory solver in
``smt/lia.py`` treats both operators as opaque, so the fold only has to agree
with itself — but it must never lose precision, which the previous
float-based ``int(a / b)`` did above 2**53 (and overflowed outright on huge
literals).

``simplify`` is iterative (no recursion limit on deep terms) and memoised per
interned term; the memo is cleared via
:func:`repro.logic.terms.clear_memos`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.logic.terms import (
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    Ite,
    StrLit,
    UnOp,
    children,
    rebuild,
)

#: term -> simplified term, keyed by interned node.  Cleared by
#: :func:`repro.logic.terms.clear_memos` (wired into ``Solver.clear_cache``).
_SIMPLIFY_MEMO: Dict[Expr, Expr] = {}


def _clear_local_memos() -> None:
    _SIMPLIFY_MEMO.clear()


def simplify(e: Expr) -> Expr:
    """Simplify ``e`` bottom-up (iteratively; results memoised per term)."""
    memo = _SIMPLIFY_MEMO
    hit = memo.get(e)
    if hit is not None:
        return hit
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            kids = children(node)
            new_kids = [memo[c] for c in kids]
            if any(nk is not k for nk, k in zip(new_kids, kids)):
                node2 = rebuild(node, new_kids)
            else:
                node2 = node
            memo[node] = _simplify_node(node2)
            continue
        if node in memo:
            continue
        kids = children(node)
        if not kids:
            memo[node] = _simplify_node(node)
            continue
        stack.append((node, True))
        for c in kids:
            if c not in memo:
                stack.append((c, False))
    return memo[e]


def _simplify_node(e: Expr) -> Expr:
    if isinstance(e, UnOp):
        return _simplify_unop(e)
    if isinstance(e, BinOp):
        return _simplify_binop(e)
    if isinstance(e, Ite):
        if isinstance(e.cond, BoolLit):
            return e.then if e.cond.value else e.els
        if e.then == e.els:
            return e.then
    return e


def _simplify_unop(e: UnOp) -> Expr:
    if e.op == "!":
        if isinstance(e.operand, BoolLit):
            return BoolLit(not e.operand.value)
        if isinstance(e.operand, UnOp) and e.operand.op == "!":
            return e.operand.operand
    if e.op == "-" and isinstance(e.operand, IntLit):
        return IntLit(-e.operand.value)
    return e


def _simplify_binop(e: BinOp) -> Expr:  # noqa: C901 - a dispatch table in disguise
    left, right = e.left, e.right
    op = e.op

    if op == "&&":
        if isinstance(left, BoolLit):
            return right if left.value else BoolLit(False)
        if isinstance(right, BoolLit):
            return left if right.value else BoolLit(False)
        if left == right:
            return left
    elif op == "||":
        if isinstance(left, BoolLit):
            return BoolLit(True) if left.value else right
        if isinstance(right, BoolLit):
            return BoolLit(True) if right.value else left
        if left == right:
            return left
    elif op == "=>":
        if isinstance(left, BoolLit):
            return right if left.value else BoolLit(True)
        if isinstance(right, BoolLit) and right.value:
            return BoolLit(True)
    elif op == "<=>":
        if isinstance(left, BoolLit):
            return right if left.value else _simplify_node(UnOp("!", right))
        if isinstance(right, BoolLit):
            return left if right.value else _simplify_node(UnOp("!", left))
        if left == right:
            return BoolLit(True)

    if isinstance(left, IntLit) and isinstance(right, IntLit):
        folded = _fold_int(op, left.value, right.value)
        if folded is not None:
            return folded

    if isinstance(left, StrLit) and isinstance(right, StrLit):
        if op == "=":
            return BoolLit(left.value == right.value)
        if op == "!=":
            return BoolLit(left.value != right.value)

    if op in ("=", "<=", ">=") and left == right:
        return BoolLit(True)
    if op in ("!=", "<", ">") and left == right and not _has_effects(left):
        return BoolLit(False)

    if op == "+" and isinstance(right, IntLit) and right.value == 0:
        return left
    if op == "+" and isinstance(left, IntLit) and left.value == 0:
        return right
    if op == "-" and isinstance(right, IntLit) and right.value == 0:
        return left
    if op == "*" and isinstance(right, IntLit) and right.value == 1:
        return left
    if op == "*" and isinstance(left, IntLit) and left.value == 1:
        return right

    return e


def _has_effects(e: Expr) -> bool:
    # Logical terms never have effects; kept for clarity/extension.
    return False


def _fold_int(op: str, a: int, b: int) -> Expr | None:
    """Fold a binary operation over integer literals, exactly.

    Division and remainder use *truncating* semantics (round toward zero),
    computed with integer arithmetic only — Python's ``//``/``%`` floor
    toward negative infinity, so both are corrected when exactly one operand
    is negative.  The pair satisfies ``a == b * trunc_div + trunc_rem`` with
    the remainder carrying the dividend's sign: ``-7 / 2 == -3``,
    ``-7 % 2 == -1``, ``7 / -2 == -3``, ``7 % -2 == 1``.
    """
    if op == "+":
        return IntLit(a + b)
    if op == "-":
        return IntLit(a - b)
    if op == "*":
        return IntLit(a * b)
    if op == "/" and b != 0:
        q = a // b
        if a % b != 0 and (a < 0) != (b < 0):
            q += 1
        return IntLit(q)
    if op == "%" and b != 0:
        r = a % b
        if r != 0 and (a < 0) != (b < 0):
            r -= b
        return IntLit(r)
    if op == "&":
        return IntLit(a & b)
    if op == "|":
        return IntLit(a | b)
    if op == "=":
        return BoolLit(a == b)
    if op == "!=":
        return BoolLit(a != b)
    if op == "<":
        return BoolLit(a < b)
    if op == "<=":
        return BoolLit(a <= b)
    if op == ">":
        return BoolLit(a > b)
    if op == ">=":
        return BoolLit(a >= b)
    return None
