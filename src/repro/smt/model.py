"""Integer models of satisfiable theory checks, and a three-valued evaluator.

When a context refutes a goal (``hyps /\\ !goal`` has a theory-consistent
SAT model), the liquid fixpoint usually goes on to ask the same hypotheses
about more candidate qualifiers of the same kappa.  A :class:`TheoryModel`
keeps the state of the theory check that found the refutation — its
congruence closure and the Fourier–Motzkin stages of its LIA problem — and
evaluates later goals under it.  A goal whose negation evaluates to true,
under a model in which the hypotheses evaluate to true, is not valid: the
context answers without a SAT call or a theory check (see
:mod:`repro.smt.context`).  These are the counterexamples of
counterexample-guided (Houdini-style) pruning.

Each part of a model is computed on first need:

* :func:`integer_point` — an integer value for every LIA variable, by
  back-substitution through the recorded stages (the last eliminated
  variable first, each taking the integer of its interval closest to 0
  that keeps the disequalities decided there).  An interval without such
  an integer (the rational relaxation's point is not integral there) or a
  point that violates a disequality gives no model;
* class values — an EUF class's value is its constant, else the value of
  its LIA variable, else a fresh integer below every other value;
* :meth:`TheoryModel.evaluate` — a three-valued evaluator in the solver's
  own semantics.  Integer constants, booleans and strings are pairwise
  distinct values.  ``+``, ``-`` and ``*`` on integers are integer
  arithmetic: the solver opens a product as soon as either factor's class
  holds a constant, so a product must be the integer product wherever both
  factors are integers.  ``&``, ``|`` and ``mask`` are the 32-bit readings
  of :mod:`repro.smt.bvmask`.  ``/``, ``%``, uninterpreted applications and
  field reads go through a function table that is checked as it fills: a
  term the closure holds takes its class value, which must agree with any
  earlier entry for the same arguments, and a term it does not hold reads
  the entry, or makes one with a fresh value.  Anything else — a variable
  the closure does not hold, a table conflict, an operator applied to
  values of the wrong kind — is unknown, and unknown never refutes.

Why a refutation by evaluation is sound: every definite value comes from
one interpretation (variables take class values, interpreted operators
their integer meaning, uninterpreted ones a table that never maps one
argument tuple to two values), and the solver's theory reasoning is valid
in every such interpretation.  So when the context's hypotheses and the
negated goal both evaluate to true, their conjunction has a model and the
solver cannot answer "valid".  The hypotheses are what makes the model a
model; :meth:`TheoryModel.refutes` evaluates them before a model's first
use and again whenever it is asked under other hypotheses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.logic import builtins
from repro.logic.terms import (App, BinOp, BoolLit, Expr, Field, IntLit, Ite,
                               StrLit, UnOp, Var)
from repro.smt.bvmask import MASK_ALL
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import LiaProblem, LinExpr, VarKey

#: A value: an ``int``, a ``bool`` or a ``str``.  ``None`` is "unknown".
Value = object

_MISSING = object()


def integer_point(problem: LiaProblem) -> Optional[Dict[VarKey, int]]:
    """An integer solution of a satisfiable problem's constraints, from the
    stages its elimination recorded; None when back-substitution meets an
    interval with no integer, or no integer that keeps the disequalities.

    Each variable takes the allowed integer of its interval closest to 0.
    A disequality is decided at the stage of its first-eliminated variable,
    the last one back-substitution assigns; variables that only
    disequalities mention take distinct values below every other value."""
    stages = problem.stages
    order = {stage[0]: index for index, stage in enumerate(stages)}
    decided_at: Dict[int, List[LinExpr]] = {}
    free = set()
    for d in problem.diseqs:
        if all(v in order for v in d.coeffs):
            if d.coeffs:
                decided_at.setdefault(min(order[v] for v in d.coeffs),
                                      []).append(d)
        else:
            free.update(v for v in d.coeffs if v not in order)
    point: Dict[VarKey, int] = {}
    for index in range(len(stages) - 1, -1, -1):
        var, uppers, lowers = stages[index]
        high = low = None
        for c in uppers:  # a*var + rest <= 0, a > 0: var <= floor(-rest/a)
            coeff, rest = _split(c.coeffs, c.const, var, point)
            bound = -rest // coeff
            if high is None or bound < high:
                high = bound
        for c in lowers:  # a*var + rest <= 0, a < 0: var >= ceil(rest/-a)
            coeff, rest = _split(c.coeffs, c.const, var, point)
            bound = -(-rest // -coeff)
            if low is None or bound > low:
                low = bound
        forbidden = set()
        for d in decided_at.get(index, ()):
            coeff, rest = _split(d.coeffs, d.const, var, point)
            if rest % coeff == 0:
                forbidden.add(-rest // coeff)
        value = _pick(low, high, forbidden)
        if value is None:
            return None
        point[var] = value
    if free:
        fresh = -1 - max([abs(x) for x in point.values()]
                         + [abs(d.const) for d in problem.diseqs])
        for offset, var in enumerate(sorted(free, key=str)):
            point[var] = fresh - offset
    for d in problem.diseqs:
        if d.const + sum(c * point[v] for v, c in d.coeffs.items()) == 0:
            return None
    return point


def _pick(low: Optional[int], high: Optional[int],
          forbidden: Set[int]) -> Optional[int]:
    """The integer of ``[low, high]`` outside ``forbidden`` closest to the
    interval's point nearest 0; None if there is none."""
    start = 0 if high is None or high > 0 else high
    if low is not None and low > start:
        start = low
    for step in range(len(forbidden) + 1):
        for value in (start + step, start - step):
            if (low is None or value >= low) \
                    and (high is None or value <= high) \
                    and value not in forbidden:
                return value
    return None


def _split(coeffs, const, var, point) -> Tuple[int, int]:
    """``(coefficient of var, value of the rest under point)``."""
    rest = const
    for key, coeff in coeffs.items():
        if key != var:
            rest += coeff * point[key]
    return coeffs[var], rest


def _same(a: Value, b: Value) -> bool:
    """Equality of two known values: integers, booleans and strings are
    distinct from each other (``1`` is not ``True``)."""
    return type(a) is type(b) and a == b


def _is_int(value: Value) -> bool:
    return type(value) is int


_ORDER = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_INTEGER_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b & MASK_ALL,
    "|": lambda a, b: (a | b) & MASK_ALL,
}


class TheoryModel:
    """A model read from the closure and LIA problem of one satisfiable
    theory check.  Lives for one implication batch."""

    __slots__ = ("_cc", "_problem", "_point", "_next_fresh", "_values",
                 "_table", "_memo", "_hypotheses", "_holds")

    def __init__(self, cc: CongruenceClosure, problem: LiaProblem) -> None:
        self._cc = cc
        self._problem = problem
        self._point: object = _MISSING
        self._next_fresh = -1
        #: class representative -> value
        self._values: Dict[int, Value] = {}
        #: (label, typed argument values) -> value of an uninterpreted term
        self._table: Dict[tuple, Value] = {}
        #: term -> value (None: unknown)
        self._memo: Dict[Expr, Optional[Value]] = {}
        self._hypotheses: Optional[Expr] = None
        self._holds = False

    def refutes(self, hypotheses: Expr, negated_goal: Expr) -> bool:
        """Does ``negated_goal`` evaluate to true in a model of
        ``hypotheses``?  ``hypotheses`` are evaluated first whenever they
        differ from the last ones asked about."""
        if hypotheses is not self._hypotheses:
            self._hypotheses = hypotheses
            self._holds = self.evaluate(hypotheses) is True
        return self._holds and self.evaluate(negated_goal) is True

    def evaluate(self, e: Expr) -> Optional[Value]:
        """The value of ``e`` under the model; None when unknown (and for
        every term when the LIA problem has no integer point)."""
        if self._point is _MISSING:
            self._point = point = integer_point(self._problem)
            if point is not None:
                self._next_fresh = -1 - max(map(abs, point.values()),
                                            default=0)
        if self._point is None:
            return None
        try:
            return self._eval(e)
        except RecursionError:
            return None

    # -- evaluation ----------------------------------------------------------

    def _eval(self, e: Expr) -> Optional[Value]:
        value = self._memo.get(e, _MISSING)
        if value is _MISSING:
            value = self._memo[e] = self._compute(e)
        return value

    def _compute(self, e: Expr) -> Optional[Value]:  # noqa: C901 - dispatch
        if isinstance(e, (IntLit, BoolLit, StrLit)):
            return e.value
        if isinstance(e, Var):
            found = self._cc.lookup(e)
            return None if found is None else self._class_value(*found)
        if isinstance(e, App):
            args = self._all(e.args)
            if args is None:
                return None
            if e.fn == builtins.MASK and len(args) == 2 \
                    and _is_int(args[0]) and _is_int(args[1]):
                return args[0] & args[1] & MASK_ALL != 0
            return self._apply(("app", e.fn), args, e)
        if isinstance(e, Field):
            target = self._eval(e.target)
            if target is None:
                return None
            return self._apply(("field", e.name), [target], e)
        if isinstance(e, UnOp):
            operand = self._eval(e.operand)
            if e.op == "!":
                return (not operand) if type(operand) is bool else None
            if e.op == "-" and _is_int(operand):
                return -operand
            return None
        if isinstance(e, Ite):
            cond = self._eval(e.cond)
            if cond is True:
                return self._eval(e.then)
            if cond is False:
                return self._eval(e.els)
            then, els = self._eval(e.then), self._eval(e.els)
            return then if then is not None and els is not None \
                and _same(then, els) else None
        if isinstance(e, BinOp):
            return self._binop(e)
        return None

    def _binop(self, e: BinOp) -> Optional[Value]:
        op = e.op
        if op == "&&" or op == "||":
            # Kleene logic over the flattened spine; a deciding operand
            # stops the walk.
            decisive = op == "||"
            result: Optional[bool] = not decisive
            stack = [e]
            while stack:
                node = stack.pop()
                if isinstance(node, BinOp) and node.op == op:
                    stack.append(node.right)
                    stack.append(node.left)
                    continue
                value = self._eval(node)
                if value is decisive:
                    return decisive
                if value is not (not decisive):
                    result = None
            return result
        left = self._eval(e.left)
        if op == "=>":
            if left is False:
                return True
            right = self._eval(e.right)
            if right is True:
                return True
            return False if left is True and right is False else None
        right = self._eval(e.right)
        if left is None or right is None:
            return None
        if op == "=":
            return _same(left, right)
        if op == "!=":
            return not _same(left, right)
        if op == "<=>":
            return left is right if type(left) is bool \
                and type(right) is bool else None
        if not (_is_int(left) and _is_int(right)):
            return None
        order = _ORDER.get(op)
        if order is not None:
            return order(left, right)
        arith = _INTEGER_OPS.get(op)
        if arith is not None:
            return arith(left, right)
        if op == "/" or op == "%":
            return self._apply(("binop", op), [left, right], e)
        return None

    def _all(self, terms) -> Optional[List[Value]]:
        values = []
        for term in terms:
            value = self._eval(term)
            if value is None:
                return None
            values.append(value)
        return values

    def _apply(self, label: tuple, args: List[Value],
               e: Expr) -> Optional[Value]:
        """An uninterpreted term through the function table."""
        key = (label, *((type(a), a) for a in args))
        entry = self._table.get(key)
        found = self._cc.lookup(e)
        if found is None:
            if entry is None:
                # Nothing evaluated so far reads the function here, so it
                # may take any value: a fresh one.
                entry = self._table[key] = self._fresh()
            return entry
        value = self._class_value(*found)
        if entry is None:
            self._table[key] = value
            return value
        return value if _same(entry, value) else None

    def _fresh(self) -> int:
        """A value below the point's values and every fresh value before
        it: low enough to falsify the lower bounds (``0 <= x``,
        ``0 < len(a)``) that most candidate qualifiers state."""
        value = self._next_fresh
        self._next_fresh -= 1
        return value

    def _class_value(self, rep: int, const: Optional[Expr]) -> Value:
        if const is not None:
            return const.value
        value = self._values.get(rep)
        if value is None:
            value = self._point.get(("t", rep))
            if value is None:
                value = self._fresh()
            self._values[rep] = value
        return value
