"""Refinement type representation and the core operations on types.

A refinement type pairs a *shape* (number, array, class reference, function,
union, ...) with a logical *refinement* predicate over the reserved value
variable ``v`` (written :data:`repro.logic.terms.VALUE_VAR`).  For example::

    {v: number | 0 <= v}                      TPrim("number", 0 <= v)
    {v: number[] | 0 < len(v)}                TArray(number(), IM, 0 < len(v))
    (a: T[], i: idx<a>) => T                  TFun([...], ...)

Liquid-type inference introduces *refinement variables* (kappas).  A kappa
occurrence is represented as an application of a reserved uninterpreted
function ``$kN(v, x1, ..., xm)`` whose arguments record the pending
substitution — this lets the ordinary term-substitution machinery apply
substitutions to kappas for free.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.logic import builtins
from repro.logic.sorts import BOOL
from repro.logic.terms import (
    App,
    Expr,
    Var,
    VALUE_VAR,
    conj,
    disj,
    eq,
    free_vars,
    substitute,
    true,
)
from repro.node import Node
from repro.rtypes.mutability import Mutability

# ---------------------------------------------------------------------------
# Kappa (refinement variable) helpers
# ---------------------------------------------------------------------------

KVAR_PREFIX = "$k"


@dataclass(frozen=True)
class KVar:
    """A refinement variable identifier (its occurrences are App terms)."""

    name: str

    def __str__(self) -> str:
        return self.name


def kvar_occurrence(name: str, scope_vars: Sequence[str]) -> App:
    """Build the occurrence term ``name(v, x1, ..., xn)``."""
    args = (VALUE_VAR,) + tuple(Var(x) for x in scope_vars)
    return App(name, args, BOOL)


def is_kvar_app(e: Expr) -> bool:
    return isinstance(e, App) and e.fn.startswith(KVAR_PREFIX)


_counter = itertools.count()


def fresh_name(prefix: str = "t") -> str:
    return f"{prefix}_{next(_counter)}"


def fresh_kvar(scope_vars: Sequence[str]) -> App:
    return kvar_occurrence(f"{KVAR_PREFIX}{next(_counter)}", scope_vars)


# ---------------------------------------------------------------------------
# Type nodes
# ---------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class RType(Node):
    """Base class for all refinement types."""

    pred: Expr = field(default_factory=true)

    def with_pred(self, pred: Expr) -> "RType":
        return replace(self, pred=pred)

    # The helpers below are overridden where meaningful.
    def base_name(self) -> str:
        return "value"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from repro.rtypes.pretty import type_to_str
        return type_to_str(self)


PRIM_NAMES = ("number", "boolean", "string", "void", "undefined", "null",
              "any", "top", "bot")


@dataclass(eq=False, repr=False)
class TPrim(RType):
    """A refined primitive: ``{v: number | p}`` etc."""

    name: str = "number"

    def base_name(self) -> str:
        return self.name


@dataclass(eq=False, repr=False)
class TVar(RType):
    """An occurrence of a generic type variable ``A``."""

    name: str = "A"

    def base_name(self) -> str:
        return self.name


@dataclass(eq=False, repr=False)
class TArray(RType):
    """An array type with element type, mutability and refinement."""

    elem: RType = field(default_factory=lambda: TPrim(name="number"))
    mutability: Mutability = Mutability.IMMUTABLE

    def base_name(self) -> str:
        return "array"


@dataclass(eq=False, repr=False)
class TRef(RType):
    """A reference to a named class or interface, e.g. ``Field<IM>``."""

    name: str = "Object"
    targs: Tuple[RType, ...] = ()
    mutability: Mutability = Mutability.MUTABLE

    def base_name(self) -> str:
        return self.name


@dataclass(eq=False, repr=False)
class TObject(RType):
    """A structural object-literal type: field name -> (mutability, type)."""

    fields: Dict[str, Tuple[Mutability, RType]] = field(default_factory=dict)
    mutability: Mutability = Mutability.MUTABLE

    def base_name(self) -> str:
        return "object"


@dataclass(eq=False, repr=False)
class TParam(Node):
    """A named function parameter with its (possibly dependent) type."""

    name: str
    type: RType

    def __str__(self) -> str:
        return f"{self.name}: {self.type}"


@dataclass(eq=False, repr=False)
class TFun(RType):
    """A (possibly generic, dependent) function type."""

    tparams: Tuple[str, ...] = ()
    params: Tuple[TParam, ...] = ()
    ret: RType = field(default_factory=lambda: TPrim(name="void"))

    def base_name(self) -> str:
        return "function"

    def arity(self) -> int:
        return len(self.params)

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]


@dataclass(eq=False, repr=False)
class TInter(RType):
    """An intersection of function types — a value-overloaded function."""

    members: Tuple[TFun, ...] = ()

    def base_name(self) -> str:
        return "function"


@dataclass(eq=False, repr=False)
class TUnion(RType):
    """A union type ``T1 + T2 + ...``."""

    members: Tuple[RType, ...] = ()

    def base_name(self) -> str:
        return "union"


@dataclass(eq=False, repr=False)
class TExists(RType):
    """An existential ``exists x: S. T`` produced by type inference."""

    var: str = "_x"
    bound: RType = field(default_factory=lambda: TPrim(name="number"))
    body: RType = field(default_factory=lambda: TPrim(name="number"))

    def base_name(self) -> str:
        return self.body.base_name()


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def prim(name: str, pred: Optional[Expr] = None) -> TPrim:
    return TPrim(pred=pred if pred is not None else true(), name=name)


def number(pred: Optional[Expr] = None) -> TPrim:
    return prim("number", pred)


def boolean(pred: Optional[Expr] = None) -> TPrim:
    return prim("boolean", pred)


def string(pred: Optional[Expr] = None) -> TPrim:
    return prim("string", pred)


def void() -> TPrim:
    return prim("void")


def undefined_t() -> TPrim:
    return prim("undefined")


def null_t() -> TPrim:
    return prim("null")


def array(elem: RType, mutability: Mutability = Mutability.IMMUTABLE,
          pred: Optional[Expr] = None) -> TArray:
    return TArray(pred=pred if pred is not None else true(), elem=elem,
                  mutability=mutability)


def refine(t: RType, pred: Expr) -> RType:
    """The strengthening operator ``T (+) p`` from the paper."""
    if isinstance(t, TExists):
        return replace(t, body=refine(t.body, pred))
    if pred.is_true():
        return t
    return t.with_pred(conj(t.pred, pred))


strengthen = refine


def selfify(t: RType, term: Expr) -> RType:
    """``self(T, t) = T (+) (v = t)`` — exact-value strengthening."""
    if isinstance(t, (TFun, TInter)) or (isinstance(t, TPrim) and t.name == "void"):
        return t
    return refine(t, eq(VALUE_VAR, term))


def base_of(t: RType) -> RType:
    """Erase all refinements, keeping only the shape (``|T|`` in the paper)."""
    if isinstance(t, TExists):
        return base_of(t.body)
    if isinstance(t, TPrim):
        return TPrim(name=t.name)
    if isinstance(t, TVar):
        return TVar(name=t.name)
    if isinstance(t, TArray):
        return TArray(elem=base_of(t.elem), mutability=t.mutability)
    if isinstance(t, TRef):
        return TRef(name=t.name, targs=tuple(base_of(a) for a in t.targs),
                    mutability=t.mutability)
    if isinstance(t, TObject):
        return TObject(fields={k: (m, base_of(ft)) for k, (m, ft) in t.fields.items()},
                       mutability=t.mutability)
    if isinstance(t, TFun):
        return TFun(tparams=t.tparams,
                    params=tuple(TParam(p.name, base_of(p.type)) for p in t.params),
                    ret=base_of(t.ret))
    if isinstance(t, TInter):
        return TInter(members=tuple(base_of(m) for m in t.members))
    if isinstance(t, TUnion):
        return TUnion(members=tuple(base_of(m) for m in t.members))
    return t.with_pred(true())


# ---------------------------------------------------------------------------
# Embedding types into the logic
# ---------------------------------------------------------------------------

_TTAG_BY_PRIM = {
    "number": "number",
    "boolean": "boolean",
    "string": "string",
    "undefined": "undefined",
}

#: Optional hook installed by the checker: maps (class name, term) to the
#: class invariant predicate ``inv(C, term)``.  A hook keeps the type layer
#: independent of the class table; a context variable keeps concurrent
#: checks (service threads, asyncio tasks) on their own class tables.
_INVARIANT_HOOK: ContextVar = ContextVar("invariant_hook", default=None)


@contextmanager
def invariant_hook(hook) -> Iterator[None]:
    """Use ``hook`` as the class-invariant provider inside the block."""
    token = _INVARIANT_HOOK.set(hook)
    try:
        yield
    finally:
        _INVARIANT_HOOK.reset(token)


def shape_pred(t: RType, term: Expr) -> Expr:
    """The logical facts implied by ``term`` having the *shape* of ``t``."""
    if isinstance(t, TExists):
        return shape_pred(t.body, term)
    if isinstance(t, TPrim):
        tag = _TTAG_BY_PRIM.get(t.name)
        if tag is not None:
            return eq(builtins.ttag_of(term), Expr_str(tag))
        return true()
    if isinstance(t, TArray):
        from repro.logic.terms import IntLit, le
        return conj(eq(builtins.ttag_of(term), Expr_str("object")),
                    le(IntLit(0), builtins.len_of(term)))
    if isinstance(t, TObject):
        return eq(builtins.ttag_of(term), Expr_str("object"))
    if isinstance(t, TRef):
        facts = [eq(builtins.ttag_of(term), Expr_str("object")),
                 builtins.instanceof_of(term, Expr_str(t.name)),
                 builtins.impl_of(term, Expr_str(t.name))]
        hook = _INVARIANT_HOOK.get()
        if hook is not None:
            facts.append(hook(t.name, term))
        return conj(*facts)
    if isinstance(t, (TFun, TInter)):
        return eq(builtins.ttag_of(term), Expr_str("function"))
    if isinstance(t, TUnion):
        return disj(*[conj(shape_pred(m, term), substitute(m.pred, {VALUE_VAR.name: term}))
                      for m in t.members])
    return true()


def Expr_str(value: str) -> Expr:
    from repro.logic.terms import StrLit
    return StrLit(value)


def embed(t: RType, term: Expr, include_shape: bool = True) -> Expr:
    """The logical meaning of ``term : t`` — ``[term/v] pred  /\\  shape facts``.

    Existentials are embedded by substituting the bound variable's embedding
    conjunctively (sound weakening: the witness facts are kept, the binder is
    left as an opaque name, which is fresh by construction)."""
    parts: List[Expr] = []
    current = t
    while isinstance(current, TExists):
        bound_var = Var(current.var)
        parts.append(embed(current.bound, bound_var, include_shape))
        current = current.body
    parts.append(substitute(current.pred, {VALUE_VAR.name: term}))
    if include_shape:
        parts.append(shape_pred(current, term))
    if isinstance(current, TUnion):
        # the union's member facts are already the shape disjunction
        pass
    return conj(*parts)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


def subst_terms(t: RType, mapping: Mapping[str, Expr]) -> RType:
    """Substitute term variables inside every refinement of ``t``."""
    if not mapping:
        return t
    new_pred = substitute(t.pred, mapping)
    if isinstance(t, TArray):
        return replace(t, pred=new_pred, elem=subst_terms(t.elem, mapping))
    if isinstance(t, TRef):
        return replace(t, pred=new_pred,
                       targs=tuple(subst_terms(a, mapping) for a in t.targs))
    if isinstance(t, TObject):
        return replace(t, pred=new_pred,
                       fields={k: (m, subst_terms(ft, mapping))
                               for k, (m, ft) in t.fields.items()})
    if isinstance(t, TFun):
        # Respect binder shadowing: parameters shadow outer names.
        inner = {k: v for k, v in mapping.items()
                 if k not in (p.name for p in t.params)}
        return replace(t, pred=new_pred,
                       params=tuple(TParam(p.name, subst_terms(p.type, inner))
                                    for p in t.params),
                       ret=subst_terms(t.ret, inner))
    if isinstance(t, TInter):
        return replace(t, pred=new_pred,
                       members=tuple(subst_terms(m, mapping) for m in t.members))
    if isinstance(t, TUnion):
        return replace(t, pred=new_pred,
                       members=tuple(subst_terms(m, mapping) for m in t.members))
    if isinstance(t, TExists):
        inner = {k: v for k, v in mapping.items() if k != t.var}
        return replace(t, pred=new_pred,
                       bound=subst_terms(t.bound, mapping),
                       body=subst_terms(t.body, inner))
    return t.with_pred(new_pred)


def subst_types(t: RType, mapping: Mapping[str, RType]) -> RType:
    """Substitute type variables by types (generic instantiation)."""
    if not mapping:
        return t
    if isinstance(t, TVar) and t.name in mapping:
        replacement = mapping[t.name]
        # carry any refinement present on the occurrence
        return refine(replacement, t.pred) if not t.pred.is_true() else replacement
    if isinstance(t, TArray):
        return replace(t, elem=subst_types(t.elem, mapping))
    if isinstance(t, TRef):
        return replace(t, targs=tuple(subst_types(a, mapping) for a in t.targs))
    if isinstance(t, TObject):
        return replace(t, fields={k: (m, subst_types(ft, mapping))
                                  for k, (m, ft) in t.fields.items()})
    if isinstance(t, TFun):
        inner = {k: v for k, v in mapping.items() if k not in t.tparams}
        return replace(t, params=tuple(TParam(p.name, subst_types(p.type, inner))
                                       for p in t.params),
                       ret=subst_types(t.ret, inner))
    if isinstance(t, TInter):
        return replace(t, members=tuple(subst_types(m, mapping) for m in t.members))
    if isinstance(t, TUnion):
        return replace(t, members=tuple(subst_types(m, mapping) for m in t.members))
    if isinstance(t, TExists):
        return replace(t, bound=subst_types(t.bound, mapping),
                       body=subst_types(t.body, mapping))
    return t


def free_kvars(t: RType) -> set[str]:
    """All refinement-variable names occurring in ``t``."""
    out: set[str] = set()

    def scan_pred(p: Expr) -> None:
        from repro.logic.terms import subterms
        for sub in subterms(p):
            if is_kvar_app(sub):
                out.add(sub.fn)

    def scan(ty: RType) -> None:
        scan_pred(ty.pred)
        if isinstance(ty, TArray):
            scan(ty.elem)
        elif isinstance(ty, TRef):
            for a in ty.targs:
                scan(a)
        elif isinstance(ty, TObject):
            for _, ft in ty.fields.values():
                scan(ft)
        elif isinstance(ty, TFun):
            for p in ty.params:
                scan(p.type)
            scan(ty.ret)
        elif isinstance(ty, (TInter, TUnion)):
            for m in ty.members:
                scan(m)
        elif isinstance(ty, TExists):
            scan(ty.bound)
            scan(ty.body)

    scan(t)
    return out


def type_free_vars(t: RType) -> set[str]:
    """All term variables mentioned in the refinements of ``t``."""
    out: set[str] = set()

    def scan(ty: RType) -> None:
        out.update(free_vars(ty.pred))
        if isinstance(ty, TArray):
            scan(ty.elem)
        elif isinstance(ty, TRef):
            for a in ty.targs:
                scan(a)
        elif isinstance(ty, TObject):
            for _, ft in ty.fields.values():
                scan(ft)
        elif isinstance(ty, TFun):
            for p in ty.params:
                scan(p.type)
            scan(ty.ret)
        elif isinstance(ty, (TInter, TUnion)):
            for m in ty.members:
                scan(m)
        elif isinstance(ty, TExists):
            scan(ty.bound)
            scan(ty.body)

    scan(t)
    out.discard(VALUE_VAR.name)
    return out


def unpack_exists(t: RType) -> Tuple[List[Tuple[str, RType]], RType]:
    """Open nested existentials, returning the binders and the inner type."""
    binders: List[Tuple[str, RType]] = []
    while isinstance(t, TExists):
        binders.append((t.var, t.bound))
        t = t.body
    return binders, t


def exists(binders: Iterable[Tuple[str, RType]], body: RType) -> RType:
    """Wrap ``body`` in existentials for each (name, bound) pair."""
    result = body
    for name, bound in reversed(list(binders)):
        result = TExists(pred=true(), var=name, bound=bound, body=result)
    return result
