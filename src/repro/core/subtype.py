"""Structural decomposition of subtyping constraints into implications.

Implements the subtyping judgment of section 3.2: refinement implication at
the leaves (discharged by SMT or by liquid fixpoint when kappas are
involved), the usual co-/contra-variance for functions, nominal width
subtyping for classes/interfaces, element subtyping for arrays (invariant
when the target is mutable), and union/intersection handling.

A *base-type mismatch* does not raise an error directly: following two-phase
typing (section 2.1.2) it becomes a dead-code obligation — the constraint
holds only if the environment is inconsistent, i.e. this occurrence is
unreachable under the overload being checked.
"""

from __future__ import annotations

from repro.errors import ErrorKind
from repro.logic.terms import BoolLit, Var, VALUE_VAR, conjuncts
from repro.rtypes import Mutability
from repro.rtypes.types import (
    RType,
    TArray,
    TFun,
    TInter,
    TObject,
    TPrim,
    TRef,
    TUnion,
    TVar,
    embed,
    subst_terms,
    unpack_exists,
)
from repro.core.classtable import ClassTable
from repro.core.constraints import ConstraintSet, SubC
from repro.core.environment import Env


class SubtypeSplitter:
    """Turns SubC constraints into flat implications."""

    def __init__(self, table: ClassTable, constraints: ConstraintSet) -> None:
        self.table = table
        self.constraints = constraints

    # -- one constraint ------------------------------------------------------------

    def split(self, c: SubC) -> None:
        env, lhs, rhs = c.env, c.lhs, c.rhs

        # Open existential binders on either side into the environment.
        binders, lhs = unpack_exists(lhs)
        for name, bound in binders:
            env = env.bind(name, bound)
        rbinders, rhs = unpack_exists(rhs)
        for name, bound in rbinders:
            env = env.bind(name, bound)

        if isinstance(rhs, TPrim) and rhs.name in ("any", "top"):
            self._leaf(env, lhs, rhs, c)
            return
        if isinstance(lhs, TPrim) and lhs.name in ("any", "bot"):
            self._leaf(env, lhs, rhs, c)
            return

        if isinstance(lhs, TUnion):
            for member in lhs.members:
                self.split(SubC(env, _carry(member, lhs), rhs, c.reason, c.span,
                                c.kind, c.code, c.owner))
            return
        if isinstance(rhs, TUnion):
            target = _matching_member(lhs, rhs)
            if target is None:
                self._mismatch(env, lhs, rhs, c)
                return
            self.split(SubC(env, lhs, _carry(target, rhs), c.reason, c.span,
                            c.kind, c.code, c.owner))
            return

        if isinstance(lhs, TPrim) and isinstance(rhs, TPrim):
            if lhs.name == rhs.name or rhs.name in ("any", "top") or \
                    lhs.name in ("bot",):
                self._leaf(env, lhs, rhs, c)
            else:
                self._mismatch(env, lhs, rhs, c)
            return

        if isinstance(lhs, TVar) and isinstance(rhs, TVar):
            if lhs.name == rhs.name:
                self._leaf(env, lhs, rhs, c)
            else:
                self._mismatch(env, lhs, rhs, c)
            return
        if isinstance(lhs, TVar) or isinstance(rhs, TVar):
            # An uninstantiated type variable against a concrete type: only
            # the refinements can be compared.
            self._leaf(env, lhs, rhs, c)
            return

        if isinstance(lhs, TArray) and isinstance(rhs, TArray):
            self._split_array(env, lhs, rhs, c)
            return

        if isinstance(lhs, TRef) and isinstance(rhs, TRef):
            rhs_info = self.table.classes.get(rhs.name)
            if self.table.is_subtype_name(lhs.name, rhs.name):
                if not lhs.mutability.is_subtype_of(rhs.mutability):
                    self.constraints.add_dead_code(
                        env, f"mutability {lhs.mutability} is not compatible with "
                             f"{rhs.mutability} ({c.reason})", c.span,
                        ErrorKind.MUTABILITY, "RSC-MUT-002", owner=c.owner)
                self._leaf(env, lhs, rhs, c)
            elif rhs_info is not None and rhs_info.is_interface:
                # A class may be used where a structurally-compatible interface
                # is expected (section 4.1: `PointC <= PointI`).
                self._split_structural_ref(env, lhs, rhs, c)
            else:
                self._mismatch(env, lhs, rhs, c)
            return

        if isinstance(lhs, (TRef, TObject)) and isinstance(rhs, TObject):
            self._split_object(env, lhs, rhs, c)
            return
        if isinstance(lhs, TObject) and isinstance(rhs, TRef):
            self._split_object_nominal(env, lhs, rhs, c)
            return

        if isinstance(lhs, TFun) and isinstance(rhs, TFun):
            self._split_fun(env, lhs, rhs, c)
            return
        if isinstance(lhs, TInter) and isinstance(rhs, TFun):
            member = _pick_overload(lhs, rhs.arity())
            self._split_fun(env, member, rhs, c)
            return
        if isinstance(lhs, TFun) and isinstance(rhs, TInter):
            for member in rhs.members:
                self._split_fun(env, lhs, member, c)
            return
        if isinstance(lhs, TInter) and isinstance(rhs, TInter):
            for member in rhs.members:
                self.split(SubC(env, lhs, member, c.reason, c.span, c.kind,
                                c.code, c.owner))
            return

        self._mismatch(env, lhs, rhs, c)

    # -- helpers ----------------------------------------------------------------------

    def _leaf(self, env: Env, lhs: RType, rhs: RType, c: SubC) -> None:
        """Emit the refinement implication ``[[env]] /\\ p_lhs => p_rhs``."""
        if rhs.pred.is_true():
            return
        hyps = env.hypotheses()
        hyps.append(embed(lhs, VALUE_VAR))
        for goal in conjuncts(rhs.pred):
            self.constraints.add_implication(hyps, goal, c.reason, c.span, c.kind,
                                             c.code, owner=c.owner)

    def _mismatch(self, env: Env, lhs: RType, rhs: RType, c: SubC) -> None:
        """Two-phase typing: a base-type mismatch is acceptable exactly when
        the context is dead code, i.e. the environment together with the
        value's own refinement is inconsistent."""
        hyps = env.hypotheses()
        hyps.append(embed(lhs, VALUE_VAR))
        self.constraints.add_implication(
            hyps, BoolLit(False),
            f"{c.reason}: incompatible types {lhs.base_name()!r} and "
            f"{rhs.base_name()!r}", c.span, c.kind, c.code, owner=c.owner)

    def _split_array(self, env: Env, lhs: TArray, rhs: TArray, c: SubC) -> None:
        if not lhs.mutability.is_subtype_of(rhs.mutability):
            self.constraints.add_dead_code(
                env, f"array mutability {lhs.mutability} is not compatible with "
                     f"{rhs.mutability} ({c.reason})", c.span, ErrorKind.MUTABILITY,
                "RSC-MUT-002", owner=c.owner)
        self._leaf(env, lhs, rhs, c)
        self.split(SubC(env, lhs.elem, rhs.elem, c.reason + " (array elements)",
                        c.span, c.kind, c.code, c.owner))
        if rhs.mutability.allows_write:
            # writes through the supertype view flow back: invariance
            self.split(SubC(env, rhs.elem, lhs.elem,
                            c.reason + " (mutable array elements, contravariant)",
                            c.span, c.kind, c.code, c.owner))

    def _split_object(self, env: Env, lhs: RType, rhs: TObject, c: SubC) -> None:
        self._leaf(env, lhs, rhs, c)
        lhs_fields = {}
        if isinstance(lhs, TObject):
            lhs_fields = lhs.fields
        elif isinstance(lhs, TRef):
            lhs_fields = {name: (Mutability.MUTABLE if not info.immutable
                                 else Mutability.IMMUTABLE, info.type)
                          for name, info in self.table.fields_of(lhs.name).items()}
        for name, (_mut, ftype) in rhs.fields.items():
            if name not in lhs_fields:
                self._mismatch(env, lhs, rhs, c)
                return
            self.split(SubC(env, lhs_fields[name][1], ftype,
                            c.reason + f" (field {name!r})", c.span, c.kind,
                            c.code, c.owner))

    def _split_structural_ref(self, env: Env, lhs: TRef, rhs: TRef, c: SubC) -> None:
        """Width subtyping of a class against a structurally-compatible
        interface: every (non-optional) interface field must exist on the
        class with a subtype."""
        lhs_fields = self.table.fields_of(lhs.name)
        for name, fld in self.table.fields_of(rhs.name).items():
            if fld.optional:
                continue
            if name not in lhs_fields:
                self._mismatch(env, lhs, rhs, c)
                return
            self.split(SubC(env, lhs_fields[name].type, fld.type,
                            c.reason + f" (field {name!r})", c.span, c.kind,
                            c.code, c.owner))
        self._leaf(env, lhs, rhs, c)

    def _split_object_nominal(self, env: Env, lhs: TObject, rhs: TRef, c: SubC) -> None:
        """A structural object used where a nominal interface is expected."""
        info = self.table.classes.get(rhs.name)
        if info is None or not info.is_interface:
            self._mismatch(env, lhs, rhs, c)
            return
        for name, fld in self.table.fields_of(rhs.name).items():
            if fld.optional:
                continue
            if name not in lhs.fields:
                self._mismatch(env, lhs, rhs, c)
                return
            self.split(SubC(env, lhs.fields[name][1], fld.type,
                            c.reason + f" (field {name!r})", c.span, c.kind,
                            c.code, c.owner))
        self._leaf(env, lhs, rhs, c)

    def _split_fun(self, env: Env, lhs: TFun, rhs: TFun, c: SubC) -> None:
        if lhs.arity() > rhs.arity():
            self._mismatch(env, lhs, rhs, c)
            return
        # Bind the supertype's parameters in the environment, then check
        # parameters contravariantly and the result covariantly, renaming the
        # subtype's dependent parameter names to the supertype's.
        inner = env
        renaming = {}
        for lp, rp in zip(lhs.params, rhs.params):
            renaming[lp.name] = Var(rp.name)
        for rp in rhs.params:
            inner = inner.bind(rp.name, rp.type)
        for lp, rp in zip(lhs.params, rhs.params):
            lhs_param = subst_terms(lp.type, renaming)
            self.split(SubC(inner, rp.type, lhs_param,
                            c.reason + f" (parameter {rp.name!r})", c.span,
                            c.kind, c.code, c.owner))
        lhs_ret = subst_terms(lhs.ret, renaming)
        self.split(SubC(inner, lhs_ret, rhs.ret, c.reason + " (result)",
                        c.span, c.kind, c.code, c.owner))


def _carry(member: RType, parent: RType) -> RType:
    """Push the union's own refinement onto the member being compared."""
    from repro.rtypes.types import refine
    return refine(member, parent.pred)


def _matching_member(lhs: RType, union: TUnion) -> RType | None:
    base = lhs.base_name()
    for member in union.members:
        if member.base_name() == base:
            return member
    for member in union.members:
        if member.base_name() in ("any", "top"):
            return member
    return None


def _pick_overload(inter: TInter, arity: int) -> TFun:
    for member in inter.members:
        if member.arity() == arity:
            return member
    return inter.members[0]
