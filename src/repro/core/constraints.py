"""Constraint representation: subtyping constraints and their flattening into
logical implications (verification conditions / Horn constraints).

Checking a program produces a :class:`ConstraintSet` containing

* :class:`SubC` — ``Gamma |- S <: T`` subtyping constraints,
* :class:`Implication` — flattened obligations ``hyps => goal`` where the
  goal is either a concrete predicate (a VC, discharged by the SMT solver) or
  a single kappa occurrence (a Horn constraint, solved by liquid fixpoint).

Dead-code obligations from two-phase typing (section 2.1.2) are implications
whose goal is literally ``false``: they hold exactly when the environment is
inconsistent, i.e. the code is unreachable under the current overload.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ErrorKind, SourceSpan
from repro.logic.terms import BoolLit, Expr, conj
from repro.node import Record, field
from repro.rtypes.types import RType
from repro.core.environment import Env


class SubC(Record):
    """A subtyping constraint ``env |- lhs <: rhs``.

    ``owner`` names the checkable unit (function, method, constructor) whose
    checking emitted the constraint; the incremental workspace uses it to
    invalidate only the partitions an edit touched.
    """

    env: Env
    lhs: RType
    rhs: RType
    reason: str
    span: SourceSpan = field(default_factory=SourceSpan.unknown)
    kind: ErrorKind = ErrorKind.SUBTYPE
    code: Optional[str] = None
    owner: Optional[str] = None


class Implication(Record):
    """A flattened obligation ``/\\ hyps => goal``."""

    hyps: List[Expr]
    goal: Expr
    reason: str
    span: SourceSpan = field(default_factory=SourceSpan.unknown)
    kind: ErrorKind = ErrorKind.SUBTYPE
    code: Optional[str] = None
    owner: Optional[str] = None

    def is_dead_code_obligation(self) -> bool:
        return isinstance(self.goal, BoolLit) and self.goal.value is False

    def hypothesis(self) -> Expr:
        return conj(*self.hyps)


class ConstraintSet(Record):
    """All constraints collected while checking one program.

    While the checker walks one checkable unit it sets
    :attr:`current_owner` (via the :meth:`owned` context manager); every
    constraint added without an explicit ``owner`` inherits it.  The
    subtype splitter, which runs after checking, passes the originating
    constraint's owner explicitly instead.
    """

    subtypings: List[SubC] = field(default_factory=list)
    implications: List[Implication] = field(default_factory=list)
    current_owner: Optional[str] = None

    @contextmanager
    def owned(self, owner: Optional[str]) -> Iterator[None]:
        """Attribute constraints added inside the block to ``owner``."""
        previous = self.current_owner
        self.current_owner = owner
        try:
            yield
        finally:
            self.current_owner = previous

    def add_sub(self, env: Env, lhs: RType, rhs: RType, reason: str,
                span: Optional[SourceSpan] = None,
                kind: ErrorKind = ErrorKind.SUBTYPE,
                code: Optional[str] = None,
                owner: Optional[str] = None) -> None:
        self.subtypings.append(SubC(env, lhs, rhs, reason,
                                    span or SourceSpan.unknown(), kind, code,
                                    owner if owner is not None
                                    else self.current_owner))

    def add_implication(self, hyps: List[Expr], goal: Expr, reason: str,
                        span: Optional[SourceSpan] = None,
                        kind: ErrorKind = ErrorKind.SUBTYPE,
                        code: Optional[str] = None,
                        owner: Optional[str] = None) -> None:
        self.implications.append(Implication(list(hyps), goal, reason,
                                             span or SourceSpan.unknown(), kind,
                                             code,
                                             owner if owner is not None
                                             else self.current_owner))

    def add_dead_code(self, env: Env, reason: str,
                      span: Optional[SourceSpan] = None,
                      kind: ErrorKind = ErrorKind.OVERLOAD,
                      code: Optional[str] = None,
                      owner: Optional[str] = None) -> None:
        """Require that ``env`` is inconsistent (the program point is dead)."""
        self.add_implication(env.hypotheses(), BoolLit(False), reason, span,
                             kind, code, owner)

    def extend(self, other: "ConstraintSet") -> None:
        self.subtypings.extend(other.subtypings)
        self.implications.extend(other.implications)

    def __len__(self) -> int:
        return len(self.subtypings) + len(self.implications)
