"""Linear integer arithmetic for conjunctions of literals.

The theory solver receives a conjunction of arithmetic literals (produced by
the lazy-SMT loop from a SAT model) and decides satisfiability.  Atoms are
normalised to the form ``sum(c_i * x_i) + c <= 0``:

* ``a <  b``  becomes ``a - b + 1 <= 0``   (integer tightening),
* ``a <= b``  becomes ``a - b     <= 0``,
* ``a =  b``  becomes the pair ``a - b <= 0`` and ``b - a <= 0``,
* ``a != b``  is kept as a disequality and checked for entailed equality.

Satisfiability of the inequality system is decided with Fourier–Motzkin
elimination over the rationals.  Because every strict inequality has been
tightened to a non-strict one with an integer slack, rational satisfiability
of the tightened system coincides with integer satisfiability on the class of
constraints RSC generates (difference-bound-like constraints); in the general
case the procedure may report "satisfiable" for an integer-infeasible system,
which for validity checking is the sound direction (fewer VCs are proved).

Non-linear products and divisions are treated as opaque (uninterpreted)
variables, exactly like the paper does (section 5.1 "Ghost Functions").

Coefficients are exact: since division is opaque, every coefficient that
:func:`linearize` produces is a plain Python int, and Fourier–Motzkin
combinations of integer constraints stay integer (cross-multiplication, no
division), which makes the elimination loop an order of magnitude cheaper
than ``fractions.Fraction`` arithmetic.  Each combination is divided by the
gcd of its terms when that is exact (:func:`_gcd_normalised`).  A problem
built from ``Fraction`` coefficients runs the same algorithm with the
normalisation skipped; ``tests/test_speed_layer.py`` and
``tests/test_smt.py`` use it as the reference and require the same
verdict, conflict mask and give-up flag.

Conflicts explain themselves.  Every constraint carries a bitmask ``tag``
naming the input literals it stands for; when Fourier–Motzkin combines two
constraints it ORs their tags, so the constant contradiction it finally
derives names exactly the inputs of its Farkas combination.
:func:`is_satisfiable` leaves that mask on :attr:`LiaProblem.conflict`, which
is how the theory combination gets an unsat core in a single pass.  When the
elimination exceeds :data:`MAX_CONSTRAINTS` it gives up, answers
"satisfiable" and sets :attr:`LiaProblem.gave_up`, so callers can report the
answer as unknown instead of as a real model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List,
                    Optional, Sequence, Tuple)

from repro.logic.terms import BinOp, Expr, IntLit, UnOp

if TYPE_CHECKING:
    from fractions import Fraction

VarKey = Hashable

#: Safety valve for Fourier–Motzkin blow-up; beyond this we give up, answer
#: "satisfiable" (sound for validity checking) and flag the give-up.
MAX_CONSTRAINTS = 4000

@dataclass(slots=True)
class LinExpr:
    """A linear expression ``sum(coeffs[k] * k) + const`` over variable keys.

    As a constraint, ``tag`` is the bitmask of the input literals it was
    derived from; sums OR the tags of their operands."""

    coeffs: Dict[VarKey, "int | Fraction"] = field(default_factory=dict)
    const: "int | Fraction" = 0
    tag: int = 0

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const, self.tag)

    def add(self, other: "LinExpr", factor: "int | Fraction" = 1) -> "LinExpr":
        out = self.copy()
        for k, c in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0) + factor * c
            if out.coeffs[k] == 0:
                del out.coeffs[k]
        out.const += factor * other.const
        out.tag |= other.tag
        return out

    def scale(self, factor: "int | Fraction") -> "LinExpr":
        return LinExpr({k: c * factor for k, c in self.coeffs.items() if c * factor != 0},
                       self.const * factor, self.tag)

    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Iterable[VarKey]:
        return self.coeffs.keys()

    @staticmethod
    def constant(value: int | Fraction) -> "LinExpr":
        return LinExpr({}, value)

    @staticmethod
    def variable(key: VarKey) -> "LinExpr":
        return LinExpr({key: 1}, 0)

    def __str__(self) -> str:
        parts = [f"{c}*{k}" for k, c in sorted(self.coeffs.items(), key=lambda kv: str(kv[0]))]
        parts.append(str(self.const))
        return " + ".join(parts)


def linearize(e: Expr, opaque: Callable[[Expr], VarKey],
              const_of: Optional[Callable[[Expr], Optional[int]]] = None) -> LinExpr:
    """Interpret ``e`` as a linear expression.

    ``opaque`` maps non-arithmetic subterms (variables, uninterpreted
    applications, non-linear products...) to variable keys — typically EUF
    representative ids so that congruent terms share a key.

    ``const_of`` optionally maps a subterm to a known integer value (derived
    from equality reasoning); this recovers a useful slice of non-linear
    arithmetic — products of terms whose values are pinned by the context —
    without a general non-linear decision procedure.
    """
    if const_of is not None and not isinstance(e, IntLit):
        known = const_of(e)
        if known is not None:
            return LinExpr.constant(known)
    if isinstance(e, IntLit):
        return LinExpr.constant(e.value)
    if isinstance(e, UnOp) and e.op == "-":
        return linearize(e.operand, opaque, const_of).scale(-1)
    if isinstance(e, BinOp):
        if e.op == "+":
            return linearize(e.left, opaque, const_of).add(
                linearize(e.right, opaque, const_of))
        if e.op == "-":
            return linearize(e.left, opaque, const_of).add(
                linearize(e.right, opaque, const_of), -1)
        if e.op == "*":
            left = linearize(e.left, opaque, const_of)
            right = linearize(e.right, opaque, const_of)
            if left.is_constant():
                return right.scale(left.const)
            if right.is_constant():
                return left.scale(right.const)
            # non-linear: opaque
            return LinExpr.variable(opaque(e))
        if e.op in ("/", "%", "&", "|"):
            return LinExpr.variable(opaque(e))
    return LinExpr.variable(opaque(e))


#: One Fourier–Motzkin stage: a variable, the constraints bounding it from
#: above (positive coefficient) and from below (negative coefficient).
Stage = Tuple[VarKey, List[LinExpr], List[LinExpr]]


@dataclass
class LiaProblem:
    """A conjunction of linear constraints plus disequalities.

    Every ``add_*`` takes the constraint's ``tag`` (default 0).  After
    :func:`is_satisfiable` answers False, :attr:`conflict` is the OR of the
    tags of the constraints the contradiction was derived from; after it
    answers True, :attr:`gave_up` says whether the answer is really
    "unknown"."""

    #: each entry is a LinExpr ``t`` meaning ``t <= 0``
    leqs: List[LinExpr] = field(default_factory=list)
    #: each entry is a LinExpr ``t`` meaning ``t != 0``
    diseqs: List[LinExpr] = field(default_factory=list)
    conflict: Optional[int] = None
    gave_up: bool = False
    #: after a satisfiable :func:`is_satisfiable`, the stages of its
    #: elimination of :attr:`leqs`, in order: ``(variable, uppers,
    #: lowers)``, the constraints that bounded the variable when it was
    #: eliminated.  :func:`repro.smt.model.integer_point` back-substitutes
    #: them, so a model costs no second elimination.
    stages: List[Stage] = field(default_factory=list)

    def add_le(self, lhs: LinExpr, rhs: LinExpr, tag: int = 0) -> None:
        diff = lhs.add(rhs, -1)
        diff.tag = tag
        self.leqs.append(diff)

    def add_lt(self, lhs: LinExpr, rhs: LinExpr, tag: int = 0) -> None:
        # a < b  over integers: a - b + 1 <= 0
        diff = lhs.add(rhs, -1)
        diff.const += 1
        diff.tag = tag
        self.leqs.append(diff)

    def add_eq(self, lhs: LinExpr, rhs: LinExpr, tag: int = 0) -> None:
        self.add_le(lhs, rhs, tag)
        self.add_le(rhs, lhs, tag)

    def add_neq(self, lhs: LinExpr, rhs: LinExpr, tag: int = 0) -> None:
        diff = lhs.add(rhs, -1)
        diff.tag = tag
        self.diseqs.append(diff)


class _GiveUp(Exception):
    """Fourier–Motzkin exceeded :data:`MAX_CONSTRAINTS`."""


def is_satisfiable(problem: LiaProblem) -> bool:
    """Decide satisfiability of the problem (sound "unsat" answers only).

    Sets ``problem.conflict`` when the answer is False and
    ``problem.gave_up`` when a True answer comes from a give-up."""
    problem.gave_up = False
    problem.stages = []
    problem.conflict = _conflict(problem)
    return problem.conflict is None


def _conflict(problem: LiaProblem) -> Optional[int]:
    conflict = _eliminate(problem, problem.leqs, problem.stages)
    if conflict is not None:
        return conflict
    bounded = {v for c in problem.leqs for v in c.coeffs}
    for d in problem.diseqs:
        if d.is_constant():
            if d.const == 0:
                return d.tag
            continue
        if not bounded.issuperset(d.coeffs):
            # A variable no inequality mentions can always move t off 0.
            continue
        # The disequality t != 0 conflicts only if the inequalities entail
        # t == 0, i.e. both t >= 1 and t <= -1 are infeasible (integers).
        ge_one = d.scale(-1)
        ge_one.const += 1  # -t + 1 <= 0  <=>  t >= 1
        above = _eliminate(problem, problem.leqs + [ge_one])
        if above is None:
            continue
        le_minus_one = d.copy()
        le_minus_one.const += 1  # t + 1 <= 0  <=>  t <= -1
        below = _eliminate(problem, problem.leqs + [le_minus_one])
        if below is not None:
            return above | below | d.tag
    return None


def _eliminate(problem: LiaProblem, leqs: Sequence[LinExpr],
               stages: Optional[List[Stage]] = None) -> Optional[int]:
    """:func:`_leqs_conflict`, recording a give-up on ``problem``."""
    try:
        return _leqs_conflict(leqs, stages)
    except _GiveUp:
        problem.gave_up = True
        return None


def entails(problem: LiaProblem, goal_leq: LinExpr) -> bool:
    """Does the problem entail ``goal_leq <= 0``?  (Used by tests/qualifiers.)"""
    negated = goal_leq.scale(-1)
    negated.const += 1  # goal > 0  <=>  -goal + 1 <= 0 over integers
    return _eliminate(problem, problem.leqs + [negated]) is not None


def _gcd_normalised(c: LinExpr) -> LinExpr:
    """Divide a constraint by the gcd of its terms when the division is exact.

    Cross-multiplication makes Fourier–Motzkin coefficients grow with every
    elimination round; dividing all coefficients *and* the constant by a
    common factor is equivalence-preserving over the rationals (the factor
    is positive), so the decision is unchanged while the integers stay
    word-sized.  Constraints with non-integer entries (callers may seed
    Fractions explicitly) are returned untouched.
    """
    g = 0
    for coeff in c.coeffs.values():
        if not isinstance(coeff, int):
            return c
        g = gcd(g, coeff)
    if g <= 1 or not isinstance(c.const, int) or c.const % g:
        return c
    return LinExpr({k: v // g for k, v in c.coeffs.items()}, c.const // g,
                   c.tag)


def _leqs_conflict(leqs: Sequence[LinExpr],
                   stages: Optional[List[Stage]] = None) -> Optional[int]:
    """Fourier–Motzkin elimination: None when the constraints are
    satisfiable, else the tag of a derived contradiction ``k <= 0`` with
    ``k > 0``.  Raises :class:`_GiveUp` past :data:`MAX_CONSTRAINTS`.
    Each variable's stage is appended to ``stages`` when given."""
    constraints = list(leqs)
    # Quick constant check first.
    for c in constraints:
        if c.is_constant() and c.const > 0:
            return c.tag
    variables = sorted({v for c in constraints for v in c.variables()},
                       key=lambda v: str(v))
    for v in variables:
        lowers: List[LinExpr] = []   # constraints giving v >= something
        uppers: List[LinExpr] = []   # constraints giving v <= something
        rest: List[LinExpr] = []
        for c in constraints:
            coeff = c.coeffs.get(v)
            if coeff is None or coeff == 0:
                rest.append(c)
            elif coeff > 0:
                uppers.append(c)
            else:
                lowers.append(c)
        new_constraints = rest
        if len(uppers) * len(lowers) + len(rest) > MAX_CONSTRAINTS:
            raise _GiveUp
        if stages is not None:
            stages.append((v, uppers, lowers))
        for up in uppers:
            cu = up.coeffs[v]
            for lo in lowers:
                cl = lo.coeffs[v]
                # up: cu*v + ru <= 0 with cu > 0  =>  v <= -ru/cu
                # lo: cl*v + rl <= 0 with cl < 0  =>  v >= -rl/cl
                # combine: (-rl/cl) <= (-ru/cu)  i.e.  ru*(-cl) + rl*cu <= 0
                coeffs = {k: c * -cl for k, c in up.coeffs.items()}
                for k, c in lo.coeffs.items():
                    c = coeffs.get(k, 0) + c * cu
                    if c:
                        coeffs[k] = c
                    else:
                        coeffs.pop(k, None)  # zero sums drop out, v's too
                combined = LinExpr(coeffs, up.const * -cl + lo.const * cu,
                                   up.tag | lo.tag)
                if not coeffs:
                    if combined.const > 0:
                        return combined.tag
                else:
                    new_constraints.append(_gcd_normalised(combined))
        constraints = new_constraints
        for c in constraints:
            if c.is_constant() and c.const > 0:
                return c.tag
    for c in constraints:
        if c.is_constant() and c.const > 0:
            return c.tag
    return None
