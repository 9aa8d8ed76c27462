"""Typing environments (Gamma) with path-sensitive guards.

An environment carries ordered variable bindings, guard predicates collected
from branch conditions, and the generic type variables in scope.  Its logical
embedding (section 3.2) is::

    [[Gamma]]  =  /\\ { p | p in guards }  /\\  /\\ { [x/v] p_x | x : {v:N | p_x} }

Environments are persistent (every operation returns a new environment) so
that constraint snapshots remain valid after the checker moves on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.logic.terms import Expr, Var, conj
from repro.node import Record
from repro.rtypes.types import RType, TFun, TInter, embed, unpack_exists


class Env(Record, frozen=True):
    bindings: Tuple[Tuple[str, RType], ...] = ()
    guards: Tuple[Expr, ...] = ()
    tvars: frozenset = frozenset()

    # -- construction -------------------------------------------------------------

    def bind(self, name: str, t: RType) -> "Env":
        return Env(self.bindings + ((name, t),), self.guards, self.tvars)

    def guard(self, pred: Expr) -> "Env":
        if pred.is_true():
            return self
        return Env(self.bindings, self.guards + (pred,), self.tvars)

    def with_tvars(self, names: Iterable[str]) -> "Env":
        return Env(self.bindings, self.guards, self.tvars | frozenset(names))

    # -- queries ---------------------------------------------------------------------

    def lookup(self, name: str) -> Optional[RType]:
        for bound_name, t in reversed(self.bindings):
            if bound_name == name:
                return t
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def names(self) -> List[str]:
        seen: List[str] = []
        for name, _ in self.bindings:
            if name not in seen:
                seen.append(name)
        return seen

    def scope_names(self) -> List[str]:
        """Variable names usable as kappa scope / qualifier arguments."""
        return [name for name in self.names() if not name.startswith("_")]

    # -- embedding ---------------------------------------------------------------------

    def hypotheses(self) -> List[Expr]:
        """The conjuncts of [[Gamma]].

        When a name is bound more than once (e.g. ``arguments`` or a parameter
        re-bound while checking a nested closure), only the most recent
        binding is embedded — the older one is shadowed, and embedding both
        would make the environment spuriously inconsistent."""
        last_index: dict = {}
        for index, (name, _t) in enumerate(self.bindings):
            last_index[name] = index
        hyps: List[Expr] = []
        for index, (name, t) in enumerate(self.bindings):
            if last_index[name] != index:
                continue
            if isinstance(t, (TFun, TInter)):
                continue
            binders, inner = unpack_exists(t)
            for bname, bound in binders:
                hyps.append(embed(bound, Var(bname)))
            hyps.append(embed(inner, Var(name)))
        hyps.extend(self.guards)
        return [h for h in hyps if not h.is_true()]

    def embedding(self) -> Expr:
        return conj(*self.hypotheses())
