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

Checks are split into a *root* and a *delta*.  A persistent SMT context
asks about many SAT models of one hypothesis environment, and most of each
model's literals are the hypotheses the SAT solver fixes at decision level
0.  A :class:`RootState` holds the congruence closure of those literals and
their linearised LIA rows, built once; each model is then checked on a copy
of that closure, asserting only its own literals and re-linearising only
the root rows whose EUF classes those literals changed (see
:class:`RootState`).  :func:`check_with_core` on a plain literal sequence is
the same code with an empty root and every literal in the delta, so there
is one copy of the literal dispatch and of the combination.

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

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.logic import builtins
from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    IntLit,
    UnOp,
)
from repro.node import Record
from repro.smt.bvmask import BvMaskSolver
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import LiaProblem, LinExpr, is_satisfiable, linearize

#: A theory literal: an atom and its polarity in the current assignment.
TheoryLiteral = Tuple[Expr, bool]

_CMP_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}
_CMP_OPS = ("<", "<=", ">", ">=", "=", "!=")


class TheoryResult(Record):
    satisfiable: bool
    #: when unsatisfiable, the subset of the input literals the conflict was
    #: derived from; used to build the blocking clause.
    core: Optional[List[TheoryLiteral]] = None
    #: the "satisfiable" answer is really "unknown": Fourier–Motzkin gave up.
    gave_up: bool = False
    #: congruence-closure nodes this check created
    terms_added: int = 0
    #: top-level :func:`repro.smt.lia.linearize` calls this check made,
    #: two per arithmetic literal it linearised
    linearize_calls: int = 0
    #: a satisfiable answer that is no give-up keeps the closure it
    #: decided on and its LIA problem (with the Fourier–Motzkin stages),
    #: from which :class:`repro.smt.model.TheoryModel` reads a model
    state: Optional[Tuple[CongruenceClosure, LiaProblem]] = None


def check_literals(literals: Sequence[TheoryLiteral]) -> bool:
    """Satisfiability of the conjunction of theory literals (sound
    "unsatisfiable" answers only: a give-up answers True)."""
    return check_with_core(literals).satisfiable


def check_with_core(literals: Sequence[TheoryLiteral]) -> TheoryResult:
    """Check a conjunction; on conflict, return the literals it came from.

    :class:`ModelLiterals` are checked on top of their root state; any other sequence is checked from an empty
    root, with every literal in the delta."""
    if isinstance(literals, ModelLiterals):
        return literals.root.check(literals.delta)
    return RootState().check(literals)


class _Row(Record):
    """One arithmetic literal, linearised against a congruence closure."""

    __slots__ = ("op", "lhs", "rhs", "bit", "leqs", "diseqs", "reads")
    op: str
    lhs: Expr
    rhs: Expr
    bit: int
    #: the literal's constraints, as :class:`LiaProblem` stores them
    leqs: Tuple[LinExpr, ...]
    diseqs: Tuple[LinExpr, ...]
    #: the representative of every class the linearisation read a
    #: representative or a constant of
    reads: Tuple[int, ...]

    def __init__(self, op: str, lhs: Expr, rhs: Expr, bit: int,
                 leqs: Tuple[LinExpr, ...], diseqs: Tuple[LinExpr, ...],
                 reads: Tuple[int, ...]) -> None:
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.bit = bit
        self.leqs = leqs
        self.diseqs = diseqs
        self.reads = reads


def _linearise(cc: CongruenceClosure, op: str, lhs: Expr, rhs: Expr,
               bit: int) -> _Row:
    """Linearise ``lhs op rhs`` against ``cc``.  The constraints' tag is the
    literal's bit plus the EUF explanation of every representative and
    constant the linearisation relied on."""
    reasons = bit
    reads: Set[int] = set()

    def opaque(term: Expr) -> Hashable:
        nonlocal reasons
        reasons |= cc.explain_representative(term)
        return ("t", cc.representative(term))

    def const_of(term: Expr) -> Optional[int]:
        # ``linearize`` asks every non-literal subterm for a constant
        # before it opens the term or treats it as opaque, so this records
        # every class the row depends on.
        nonlocal reasons
        reads.add(cc.representative(term))
        value = cc.int_value_of(term)
        if value is not None:
            reasons |= cc.explain_value(term)
        return value

    l = linearize(lhs, opaque, const_of)
    r = linearize(rhs, opaque, const_of)
    problem = LiaProblem()
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
    # A constraint without variables that holds (``k <= 0`` with k <= 0,
    # ``k != 0`` with k != 0) never takes part in a Fourier–Motzkin
    # contradiction, so it is not kept.  The row itself is kept: if the
    # model changes a class it read, re-linearising it may give variables.
    leqs = tuple(c for c in problem.leqs if c.coeffs or c.const > 0)
    diseqs = tuple(d for d in problem.diseqs if d.coeffs or d.const == 0)
    return _Row(op, lhs, rhs, bit, leqs, diseqs, tuple(reads))


class ModelLiterals(list):
    """A SAT model's theory literals: its root state's literals, then the
    model's own (``delta``).  :func:`check_with_core` checks them as root
    state plus delta.  Passing the root inside the literal list keeps
    ``check_with_core(literals)`` the one theory entry point of both
    engines, for every caller that wraps it."""

    __slots__ = ("root", "delta")

    def __init__(self, root: "RootState",
                 delta: Sequence[TheoryLiteral]) -> None:
        self.root = root
        self.delta = list(delta)
        super().__init__(root.literals + self.delta)


class RootState:
    """The theory state of literals that every model of one SMT context
    shares: the hypotheses the SAT solver fixes at decision level 0.

    Built by its first :meth:`check`, it holds the congruence closure of
    its literals (bits ``0..k-1``), their linearised LIA rows and their
    bit-mask literals.  ``atoms`` that every model assigns, but not always
    the same way, only have their terms registered, so models do not
    create them again.  :meth:`check` decides a model from a copy of that
    closure, asserting only the model's other literals (bits ``k..``).  It
    reuses every root row whose classes the delta neither relabelled nor
    pinned to a constant: such a row is exactly what re-linearising it
    against the model's closure would give.  The rest are re-linearised.
    """

    def __init__(self, literals: Sequence[TheoryLiteral] = (),
                 atoms: Sequence[Expr] = ()) -> None:
        self.literals: List[TheoryLiteral] = list(literals)
        self.atoms: List[Expr] = list(atoms)
        #: the root closure; None until the first check builds it
        self.cc: Optional[CongruenceClosure] = None
        self.rows: List[_Row] = []
        self.mask_lits: List[Tuple[Expr, int, bool, int]] = []
        #: the bit of the first constant-false literal, if any
        self.false_bit: Optional[int] = None

    def _build(self, work: TheoryResult) -> None:
        cc = CongruenceClosure()
        cc.assert_neq(BoolLit(True), BoolLit(False))
        arith: List[Tuple[str, Expr, Expr, int]] = []
        self.false_bit = _assert_literals(cc, self.literals, 0, arith,
                                          self.mask_lits)
        if self.false_bit is None and cc.conflict is None:
            for atom in self.atoms:
                _register_atom(cc, atom)
            self.rows = [_linearise(cc, *lit) for lit in arith]
        self.cc = cc
        work.terms_added += cc.terms_added
        work.linearize_calls += 2 * len(self.rows)

    def check(self, delta: Sequence[TheoryLiteral]) -> TheoryResult:
        """Decide ``root.literals + delta``; a core indexes that list.
        The result's work counts include building the root, if this check
        did."""
        delta = list(delta)
        result = TheoryResult(True)
        if self.cc is None:
            self._build(result)
        conflict, result.gave_up = self._conflict(delta, result)
        if conflict is not None:
            lits = self.literals + delta
            result.satisfiable = False
            result.core = [lit for index, lit in enumerate(lits)
                           if conflict >> index & 1]
        return result

    def _conflict(self, delta: List[TheoryLiteral],
                  work: TheoryResult) -> Tuple[Optional[int], bool]:
        """``(conflict, gave_up)``: the bitmask of the literals behind a
        conflict (None when satisfiable), and whether a satisfiable answer
        comes from a Fourier–Motzkin give-up.  Work counts go to ``work``."""
        if self.false_bit is not None:
            return self.false_bit, False
        cc = self.cc.copy()
        arith: List[Tuple[str, Expr, Expr, int]] = []
        mask_lits = list(self.mask_lits)
        false_bit = _assert_literals(cc, delta, len(self.literals), arith,
                                     mask_lits)
        work.terms_added += cc.terms_added
        if false_bit is not None:
            return false_bit, False
        if cc.conflict is not None:
            return cc.conflict, False

        # ---- LIA ---------------------------------------------------------
        problem = LiaProblem()
        relinearised = 0
        root_cc = self.cc
        for row in self.rows:
            if not all(cc.class_unchanged(rep, root_cc) for rep in row.reads):
                row = _linearise(cc, row.op, row.lhs, row.rhs, row.bit)
                relinearised += 1
            problem.leqs.extend(row.leqs)
            problem.diseqs.extend(row.diseqs)
        for lit in arith:
            row = _linearise(cc, *lit)
            problem.leqs.extend(row.leqs)
            problem.diseqs.extend(row.diseqs)
        work.linearize_calls += 2 * (relinearised + len(arith))

        # Pin every class containing an integer constant to that constant.
        for rep, value, why in cc.int_constants():
            problem.add_eq(LinExpr.variable(("t", rep)),
                           LinExpr.constant(value), why)

        if not is_satisfiable(problem):
            return problem.conflict, False

        # ---- bit-masks -----------------------------------------------------
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

        if not problem.gave_up:
            work.state = (cc, problem)
        return None, problem.gave_up


def _register_atom(cc: CongruenceClosure, atom: Expr) -> None:
    """Register the terms :func:`_assert_literals` would add for ``atom``
    (under either polarity) without asserting anything."""
    stripped = _strip_not(atom, True)
    if stripped is None or isinstance(stripped[0], BoolLit):
        return
    expr = stripped[0]
    if isinstance(expr, BinOp) and expr.op in _CMP_OPS:
        cc.add_term(expr.left)
        cc.add_term(expr.right)
    else:
        cc.add_term(expr)


def _assert_literals(cc: CongruenceClosure, lits: Sequence[TheoryLiteral],
                     offset: int, arith: List[Tuple[str, Expr, Expr, int]],
                     mask_lits: List[Tuple[Expr, int, bool, int]]
                     ) -> Optional[int]:
    """Assert literals ``offset, offset+1, ...`` (bit ``1 << index``) in
    ``cc``, collecting arithmetic literals (``(op, lhs, rhs, bit)`` with
    ``op`` polarised) in ``arith`` and bit-mask literals (``(base, mask,
    positive, bit)``) in ``mask_lits``.  Returns the bit of a constant-false
    literal, at which it stops; None otherwise."""
    true_const = BoolLit(True)
    false_const = BoolLit(False)
    for index, (atom, polarity) in enumerate(lits, offset):
        bit = 1 << index
        stripped = _strip_not(atom, polarity)
        if stripped is None:
            return bit  # literal was a constant false
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
    return None


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
