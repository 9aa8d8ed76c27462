"""Logical qualifiers — the candidate atomic refinements for liquid inference.

A qualifier is a predicate template over the value variable ``v`` and a
placeholder ``$star``; instantiation replaces the placeholder with program
variables that are in scope for the kappa being solved.  The default pool
follows the one shipped with the paper's implementation (bounds, equalities,
orderings, array-length relations and type tags); additional qualifiers are
harvested from the refinement annotations present in the program and from
explicit ``qualifier p;`` declarations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.logic import builtins
from repro.logic.terms import (
    Expr,
    IntLit,
    StrLit,
    Var,
    VALUE_VAR,
    conjuncts,
    eq,
    free_vars,
    ge,
    gt,
    le,
    lt,
    ne,
    substitute,
)
from repro.node import Record

STAR = Var("$star")
STAR2 = Var("$star2")

#: Kinds of program variables a placeholder may be instantiated with.
KIND_NUMBER = "number"
KIND_ARRAY = "array"
KIND_ANY = "any"
#: "first-class value" kinds that make sense inside equality qualifiers
KIND_VALUE = "value"
_VALUE_KINDS = {"number", "array", "object", "string", "boolean"}


class Qualifier(Record, frozen=True):
    """A qualifier template with the placeholder kind it expects."""

    template: Expr
    star_kind: str = KIND_ANY

    def __post_init__(self) -> None:
        # Precomputed once — instantiation calls has_star() per candidate
        # scope, and free_vars() per call was measurable in that hot loop.
        # Not a record field, so eq/hash stay template+kind only.
        object.__setattr__(
            self, "_has_star", "$star" in free_vars(self.template))

    def has_star(self) -> bool:
        return self._has_star  # type: ignore[attr-defined]

    def instantiate(self, candidates: Dict[str, str]) -> List[Expr]:
        """All instantiations of the template over candidate variables.

        ``candidates`` maps variable names to their kind ("number", "array",
        "object", ...)."""
        if not self.has_star():
            return [self.template]
        out: List[Expr] = []
        for name, kind in candidates.items():
            if self.star_kind == KIND_VALUE:
                if kind not in _VALUE_KINDS:
                    continue
            elif self.star_kind != KIND_ANY and kind != self.star_kind:
                continue
            out.append(substitute(self.template, {"$star": Var(name)}))
        return out


def default_qualifiers() -> List[Qualifier]:
    """The built-in qualifier pool."""
    v = VALUE_VAR
    zero = IntLit(0)
    quals: List[Qualifier] = [
        Qualifier(le(zero, v)),
        Qualifier(lt(zero, v)),
        Qualifier(ne(v, zero)),
        Qualifier(ge(v, IntLit(-1))),
        Qualifier(eq(v, STAR), KIND_VALUE),
        Qualifier(ne(v, STAR), KIND_VALUE),
        Qualifier(lt(v, STAR), KIND_NUMBER),
        Qualifier(le(v, STAR), KIND_NUMBER),
        Qualifier(gt(v, STAR), KIND_NUMBER),
        Qualifier(ge(v, STAR), KIND_NUMBER),
        Qualifier(lt(v, builtins.len_of(STAR)), KIND_ARRAY),
        Qualifier(le(v, builtins.len_of(STAR)), KIND_ARRAY),
        Qualifier(eq(v, builtins.len_of(STAR)), KIND_ARRAY),
        Qualifier(eq(builtins.len_of(v), builtins.len_of(STAR)), KIND_ARRAY),
    ]
    for tag in builtins.TYPE_TAGS:
        quals.append(Qualifier(eq(builtins.ttag_of(v), StrLit(tag))))
    return quals


class QualifierPool:
    """The set of qualifiers available for a checking run."""

    def __init__(self, qualifiers: Optional[Iterable[Qualifier]] = None) -> None:
        # an explicitly empty iterable means "no built-ins" (harvested-only
        # runs), so only None selects the default pool
        self.qualifiers: List[Qualifier] = list(
            default_qualifiers() if qualifiers is None else qualifiers)
        # Dedup keys on the template term itself (pointer-cheap after
        # hash-consing).  Keying on str(...) silently dropped distinct
        # templates whose renderings collide — e.g. Var("true") vs
        # BoolLit(True), or Var("'x'") vs StrLit("x").
        self._seen: Set[Expr] = {q.template for q in self.qualifiers}

    def add(self, qualifier: Qualifier) -> None:
        key = qualifier.template
        if key not in self._seen:
            self._seen.add(key)
            self.qualifiers.append(qualifier)

    def add_predicate(self, pred: Expr) -> None:
        """Harvest qualifiers from a refinement predicate found in the program.

        Each atomic conjunct mentioning ``v`` is added; if it mentions exactly
        one other variable, that variable is generalised to the placeholder."""
        for atom in conjuncts(pred):
            names = free_vars(atom)
            if VALUE_VAR.name not in names:
                continue
            others = sorted(n for n in names
                            if n != VALUE_VAR.name and not n.startswith("$k"))
            if not others:
                self.add(Qualifier(atom))
            elif len(others) == 1:
                generalised = substitute(atom, {others[0]: STAR})
                self.add(Qualifier(generalised))
                self.add(Qualifier(atom))
            else:
                self.add(Qualifier(atom))

    def instantiate(self, candidates: Dict[str, str]) -> List[Expr]:
        """All candidate refinements over the given scope variables."""
        out: List[Expr] = []
        seen: Set[Expr] = set()
        for qualifier in self.qualifiers:
            for inst in qualifier.instantiate(candidates):
                if inst not in seen:
                    seen.add(inst)
                    out.append(inst)
        return out
