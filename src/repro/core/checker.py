"""The RSC refinement type checker (constraint generation over IRSC).

For every function, method and constructor the checker

1. SSA-converts the body (:mod:`repro.ssa`),
2. walks the resulting IRSC term, synthesising refinement types for
   expressions and emitting subtyping constraints at value-flow points
   (assignments, calls, returns, writes, Phi joins),
3. introduces kappa templates for polymorphic instantiations and Phi
   variables (loop invariants),
4. encodes overloading via two-phase typing: each overload of an
   intersection signature is checked separately and base-type mismatches
   become dead-code obligations.

The collected constraints are then flattened (:mod:`repro.core.subtype`),
kappas are solved by liquid fixpoint (:mod:`repro.core.liquid`), and the
remaining concrete verification conditions are discharged by the SMT layer.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.errors import DiagnosticBag, ErrorKind, SourceSpan
from repro.lang import ast
from repro.logic import builtins
from repro.logic.terms import (
    App,
    BoolLit,
    Expr,
    Field,
    IntLit,
    StrLit,
    Var,
    VALUE_VAR,
    conj,
    eq,
    le,
    lt,
    ne,
    true,
)
from repro.node import Record
from repro.rtypes import Mutability
from repro.rtypes.types import (
    KVAR_PREFIX,
    RType,
    TArray,
    TFun,
    TInter,
    TObject,
    TParam,
    TPrim,
    TRef,
    TUnion,
    TVar,
    base_of,
    boolean,
    embed,
    number,
    refine,
    selfify,
    string,
    subst_terms,
    subst_types,
    undefined_t,
    unpack_exists,
    void,
)
from repro.smt.solver import Counters
from repro.ssa import ir
from repro.ssa.transform import SsaTransformer
from repro.core import prelude
from repro.core.classtable import ClassInfo, ClassTable, FieldInfo, MethodInfo
from repro.core.constraints import ConstraintSet
from repro.core.embedexpr import ExprEmbedder
from repro.core.environment import Env
from repro.core.liquid.fixpoint import KappaRegistry
from repro.core.liquid.qualifiers import QualifierPool
from repro.core.resolve import Resolver


class ClosureInfo(Record):
    """A nested function whose signature is determined at its use site."""

    decl: ast.FunctionDecl
    env: Env


class CheckerStats(Counters):
    functions_checked: int = 0
    overloads_checked: int = 0
    methods_checked: int = 0
    constructors_checked: int = 0
    kappas_created: int = 0
    constraints: int = 0


class Checker:
    """Constraint generation for a whole program."""

    def __init__(self, program: ast.Program, diags: DiagnosticBag,
                 pool: Optional[QualifierPool] = None) -> None:
        self.program = program
        self.diags = diags
        self.table = ClassTable.from_program(program, diags)
        self.resolver = Resolver(self.table, diags)
        self.constraints = ConstraintSet()
        self.kappas = KappaRegistry()
        self.pool = pool or QualifierPool()
        self.embedder = ExprEmbedder(self.table.enums)
        self.stats = CheckerStats()
        self._closures: Dict[str, ClosureInfo] = {}
        # Kappa names are deterministic *per checkable unit* (the constraint
        # partition owner), so re-checking an unchanged declaration after an
        # edit elsewhere reproduces identical kappa names — the property the
        # incremental workspace's warm-started fixpoint relies on.
        self._kappa_counters: Dict[Optional[str], "itertools.count"] = {}
        self._in_constructor = False
        self._signatures: Dict[str, RType] = {}

    def invariants(self):
        """Context manager that makes this program's class table provide
        the class invariants while constraints are generated and split:
        class-typed binders carry their invariant in their embedding (rule
        [T-NEW] / the `inv` structural constraint of section 3.2).  Scoped
        to the calling thread, so concurrent checks keep their own."""
        from repro.rtypes.types import invariant_hook
        return invariant_hook(self.table.invariant)

    # ------------------------------------------------------------------
    # program-level driving
    # ------------------------------------------------------------------

    def run(self) -> None:
        self._resolve_class_members()
        self._harvest_qualifiers()
        global_env = self._global_env()
        for decl in self.program.declarations:
            if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                with self.constraints.owned(decl.name):
                    self._check_function_decl(decl, global_env)
            elif isinstance(decl, ast.ClassDecl):
                self._check_class(decl, global_env)
        self.stats.constraints = len(self.constraints)

    def _resolve_class_members(self) -> None:
        for name, info in self.table.classes.items():
            decl = info.decl
            if decl is None:
                continue
            tparams = info.tparams
            field_decls = decl.fields if isinstance(decl, (ast.ClassDecl,
                                                           ast.InterfaceDecl)) else []
            for fdecl in field_decls:
                info.fields[fdecl.name] = FieldInfo(
                    name=fdecl.name,
                    type=self.resolver.resolve(fdecl.type, tparams),
                    immutable=fdecl.immutable,
                    optional=fdecl.optional)
            if isinstance(decl, ast.InterfaceDecl):
                for sig in decl.methods:
                    info.methods[sig.name] = MethodInfo(
                        name=sig.name,
                        signature=self.resolver.resolve_method(name, sig, tparams),
                        receiver_mutability=_receiver_mut(sig.receiver_mutability))
            elif isinstance(decl, ast.ClassDecl):
                for method in decl.methods:
                    info.methods[method.sig.name] = MethodInfo(
                        name=method.sig.name,
                        signature=self.resolver.resolve_method(name, method.sig,
                                                               tparams),
                        receiver_mutability=_receiver_mut(
                            method.sig.receiver_mutability),
                        decl=method)
                if decl.constructor is not None:
                    csig = decl.constructor.sig
                    info.constructor = MethodInfo(
                        name="constructor",
                        signature=self.resolver.resolve_method(name, csig, tparams),
                        receiver_mutability=Mutability.UNIQUE,
                        decl=decl.constructor)
                    info.ctor_field_params = _ctor_field_params(decl.constructor)

    def _harvest_qualifiers(self) -> None:
        for params, body in self.table.aliases.values():
            resolved = self.resolver.resolve(body, params)
            self._harvest_type(resolved)
        for specs in self.table.specs.values():
            for spec in specs:
                self._harvest_type(self.resolver.resolve(spec))
        for info in self.table.classes.values():
            for fld in info.fields.values():
                self._harvest_type(fld.type)
        for pred in self.table.qualifiers:
            self.pool.add_predicate(self.embedder.predicate(pred))

    def _harvest_type(self, t: RType) -> None:
        self.pool.add_predicate(t.pred)
        if isinstance(t, TArray):
            self._harvest_type(t.elem)
        elif isinstance(t, (TFun,)):
            for p in t.params:
                self._harvest_type(p.type)
            self._harvest_type(t.ret)
        elif isinstance(t, TInter):
            for m in t.members:
                self._harvest_type(m)
        elif isinstance(t, TUnion):
            for m in t.members:
                self._harvest_type(m)

    def _global_env(self) -> Env:
        env = Env()
        for name, t in prelude.global_bindings().items():
            env = env.bind(name, t)
        for name, ann in self.table.declares.items():
            env = env.bind(name, self.resolver.resolve(ann))
        for name, decl in self.table.functions.items():
            sig = self.resolver.resolve_function(decl)
            if sig is not None:
                self._signatures[name] = sig
                env = env.bind(name, sig)
        return env

    # ------------------------------------------------------------------
    # functions, methods, constructors
    # ------------------------------------------------------------------

    def _check_function_decl(self, decl: ast.FunctionDecl, env: Env) -> None:
        sig = self._signatures.get(decl.name) or self.resolver.resolve_function(decl)
        self.stats.functions_checked += 1
        if sig is None:
            self.diags.warning(ErrorKind.RESOLUTION,
                               f"function {decl.name!r} has no signature; skipped",
                               decl.span, code="RSC-RES-005")
            return
        overloads = sig.members if isinstance(sig, TInter) else (sig,)
        for overload in overloads:
            self.stats.overloads_checked += 1
            self._check_callable(decl, overload, env, this_type=None)

    def _check_class(self, decl: ast.ClassDecl, env: Env) -> None:
        info = self.table.classes[decl.name]
        if decl.constructor is not None and decl.constructor.body is not None:
            with self.constraints.owned(f"{decl.name}.constructor"):
                self._check_constructor(decl, info, env)
        for method in decl.methods:
            if method.body is None:
                continue
            minfo = info.methods[method.sig.name]
            self.stats.methods_checked += 1
            this_type = self._this_type(decl.name, minfo.receiver_mutability)
            fdecl = ast.FunctionDecl(name=f"{decl.name}.{method.sig.name}",
                                     tparams=list(decl.tparams) + list(method.sig.tparams),
                                     params=method.sig.params, ret=method.sig.ret,
                                     body=method.body, span=method.sig.span)
            with self.constraints.owned(fdecl.name):
                self._check_callable(fdecl, minfo.signature, env,
                                     this_type=this_type)

    def _this_type(self, class_name: str, mutability: Mutability) -> RType:
        inv = self.table.invariant(class_name, VALUE_VAR)
        return TRef(name=class_name, mutability=mutability, pred=inv)

    def _check_constructor(self, decl: ast.ClassDecl, info: ClassInfo,
                           env: Env) -> None:
        self.stats.constructors_checked += 1
        ctor = decl.constructor
        assert ctor is not None and ctor.body is not None
        sig = info.constructor.signature if info.constructor else TFun()
        this_type = TRef(name=decl.name, mutability=Mutability.UNIQUE,
                         pred=self.table.shape_facts(decl.name, VALUE_VAR))
        fdecl = ast.FunctionDecl(name=f"{decl.name}.constructor",
                                 tparams=list(decl.tparams), params=ctor.sig.params,
                                 ret=None, body=ctor.body, span=ctor.sig.span)
        self._in_constructor = True
        try:
            self._check_callable(fdecl, sig, env, this_type=this_type,
                                 ret_override=void())
        finally:
            self._in_constructor = False

    def _check_callable(self, decl: ast.FunctionDecl, sig: TFun, env: Env,
                        this_type: Optional[RType],
                        ret_override: Optional[RType] = None) -> None:
        body = decl.body
        if body is None:
            return
        ssa = SsaTransformer().function(decl)
        inner = env.with_tvars(sig.tparams).with_tvars(decl.tparams)
        if this_type is not None:
            inner = inner.bind("this", this_type)
        # Bind declared parameters.  Extra source parameters beyond the
        # overload's arity are bound to `undefined` (value-based overloading).
        for index, param in enumerate(decl.params):
            if index < len(sig.params):
                ptype = sig.params[index].type
                renaming = {sig.params[index].name: Var(param.name)}
                ptype = subst_terms(ptype, renaming)
            else:
                ptype = undefined_t()
            inner = inner.bind(param.name, ptype)
        arguments_type = TArray(elem=TPrim(name="any"),
                                mutability=Mutability.IMMUTABLE,
                                pred=eq(builtins.len_of(VALUE_VAR),
                                        IntLit(len(sig.params))))
        inner = inner.bind("arguments", arguments_type)
        ret = ret_override if ret_override is not None else sig.ret
        # dependent return types refer to parameter names of the signature;
        # rename them to the declaration's parameter names
        renaming = {sp.name: Var(dp.name)
                    for sp, dp in zip(sig.params, decl.params)}
        ret = subst_terms(ret, renaming)
        self._check_body(ssa.body, inner, ret, None)

    # ------------------------------------------------------------------
    # body checking
    # ------------------------------------------------------------------

    def _check_body(self, body: ir.IBody, env: Env, ret: RType,
                    join_sink: Optional[List[Tuple[Env, List[str]]]]) -> None:
        if isinstance(body, ir.IRet):
            if body.value is None:
                return
            value_type, env2, term = self._synth(body.value, env)
            self.constraints.add_sub(env2, _with_self(value_type, term), ret,
                                     "returned expression", body.span,
                                     code="RSC-SUB-003")
            return
        if isinstance(body, ir.IJoin):
            if join_sink is not None:
                join_sink.append((env, list(body.values)))
            return
        if isinstance(body, ir.ILet):
            self._check_let(body, env, ret, join_sink)
            return
        if isinstance(body, ir.ILetIf):
            self._check_letif(body, env, ret, join_sink)
            return
        if isinstance(body, ir.ILetWhile):
            self._check_letwhile(body, env, ret, join_sink)
            return
        if isinstance(body, ir.ILetFunc):
            self._check_letfunc(body, env, ret, join_sink)
            return
        if isinstance(body, ir.ISetField):
            env2 = self._check_setfield(body, env)
            self._check_body(body.rest, env2, ret, join_sink)
            return
        if isinstance(body, ir.ISetIndex):
            self._check_setindex(body, env)
            self._check_body(body.rest, env, ret, join_sink)
            return
        raise AssertionError(f"unexpected IR node {type(body).__name__}")

    def _check_let(self, node: ir.ILet, env: Env, ret: RType,
                   join_sink) -> None:
        expr = node.expr
        # `assume(p)` strengthens the environment.
        if isinstance(expr, ast.Call) and isinstance(expr.callee, ast.VarRef) and \
                expr.callee.name == "assume" and expr.args:
            pred = self.embedder.predicate(expr.args[0])
            self._check_body(node.rest, env.guard(pred), ret, join_sink)
            return
        value_type, env2, term = self._synth(expr, env)
        bound = _with_self(value_type, term if term is not None else Var(node.name))
        if node.type_ann is not None:
            ann_type = self.resolver.resolve(node.type_ann,
                                             tuple(env.tvars))
            self.constraints.add_sub(env2, bound, ann_type,
                                     f"initialiser of {node.name!r}", node.span,
                                     code="RSC-SUB-004")
            bound = _with_self(ann_type, term if term is not None else Var(node.name))
        env3 = env2.bind(node.name, bound)
        self._check_body(node.rest, env3, ret, join_sink)

    def _check_letif(self, node: ir.ILetIf, env: Env, ret: RType,
                     join_sink) -> None:
        _cond_type, env_c, _term = self._synth(node.cond, env)
        guard_true = self.embedder.guard(node.cond, True)
        guard_false = self.embedder.guard(node.cond, False)
        then_joins: List[Tuple[Env, List[str]]] = []
        else_joins: List[Tuple[Env, List[str]]] = []
        self._check_body(node.then, env_c.guard(guard_true), ret, then_joins)
        self._check_body(node.els, env_c.guard(guard_false), ret, else_joins)
        env_after = env_c
        if node.phis:
            templates = self._phi_templates(node.phis, then_joins + else_joins, env_c)
            for joins in (then_joins, else_joins):
                for join_env, values in joins:
                    for phi, value_name, template in zip(node.phis, _transpose(values),
                                                         templates):
                        value_type = join_env.lookup(value_name) or TPrim(name="any")
                        self.constraints.add_sub(
                            join_env, selfify(value_type, Var(value_name)), template,
                            f"phi variable {phi.source_name!r}", node.span,
                            code="RSC-SUB-005")
            for phi, template in zip(node.phis, templates):
                env_after = env_after.bind(phi.name,
                                           selfify(template, Var(phi.name)))
        both_return = ir.terminates(node.then) and ir.terminates(node.els)
        if not both_return:
            if ir.terminates(node.then):
                env_after = env_after.guard(guard_false)
            elif ir.terminates(node.els):
                env_after = env_after.guard(guard_true)
        self._check_body(node.rest, env_after, ret, join_sink)

    def _phi_templates(self, phis: List[ir.Phi],
                       joins: List[Tuple[Env, List[str]]],
                       env: Env) -> List[RType]:
        """Fresh kappa templates for conditional-join Phi variables; the base
        shape is taken from the first branch value that reaches the join."""
        templates: List[RType] = []
        for index, phi in enumerate(phis):
            base: RType = TPrim(name="any")
            for join_env, values in joins:
                if index < len(values):
                    found = join_env.lookup(values[index])
                    if found is not None:
                        base = base_of(found)
                        break
            templates.append(self._fresh_template(base, env))
        return templates

    def _check_letwhile(self, node: ir.ILetWhile, env: Env, ret: RType,
                        join_sink) -> None:
        # Templates for the loop Phis (the inferred loop invariant).
        templates: List[RType] = []
        for phi in node.phis:
            init_type = env.lookup(phi.init_name) or TPrim(name="any")
            template = self._fresh_template(base_of(init_type), env)
            if node.invariant is not None:
                template = refine(template, self.embedder.predicate(node.invariant))
            templates.append(template)
            self.constraints.add_sub(env, selfify(init_type, Var(phi.init_name)),
                                     template,
                                     f"loop entry for {phi.source_name!r}",
                                     node.span, code="RSC-SUB-005")
        loop_env = env
        for phi, template in zip(node.phis, templates):
            loop_env = loop_env.bind(phi.name, selfify(template, Var(phi.name)))
        _cond_type, loop_env_c, _ = self._synth(node.cond, loop_env)
        guard_true = self.embedder.guard(node.cond, True)
        guard_false = self.embedder.guard(node.cond, False)
        body_joins: List[Tuple[Env, List[str]]] = []
        self._check_body(node.body, loop_env_c.guard(guard_true), ret, body_joins)
        for join_env, values in body_joins:
            for phi, value_name, template in zip(node.phis, _transpose(values),
                                                 templates):
                value_type = join_env.lookup(value_name) or TPrim(name="any")
                self.constraints.add_sub(
                    join_env, selfify(value_type, Var(value_name)), template,
                    f"loop back-edge for {phi.source_name!r}", node.span,
                    code="RSC-SUB-005")
        env_after = loop_env_c.guard(guard_false)
        self._check_body(node.rest, env_after, ret, join_sink)

    def _check_letfunc(self, node: ir.ILetFunc, env: Env, ret: RType,
                       join_sink) -> None:
        decl = node.decl
        sig = self.resolver.resolve_function(decl)
        env_after = env
        if sig is not None:
            overloads = sig.members if isinstance(sig, TInter) else (sig,)
            for overload in overloads:
                self.stats.overloads_checked += 1
                self._check_callable(decl, overload, env, this_type=None)
            env_after = env.bind(node.name, sig)
        else:
            self._closures[node.name] = ClosureInfo(decl=decl, env=env)
            env_after = env.bind(node.name, TFun(params=tuple(
                TParam(p.name, TPrim(name="any")) for p in decl.params),
                ret=TPrim(name="any")))
        self._check_body(node.rest, env_after, ret, join_sink)

    def _check_setfield(self, node: ir.ISetField, env: Env) -> Env:
        target_type, env2, target_term = self._synth(node.target, env)
        value_type, env3, value_term = self._synth(node.value, env2)
        _binders, inner = unpack_exists(target_type)
        is_this = isinstance(node.target, ast.ThisRef)
        if isinstance(inner, TRef):
            fld = self.table.lookup_field(inner.name, node.field_name)
            if fld is None:
                self.diags.error(ErrorKind.RESOLUTION,
                                 f"class {inner.name!r} has no field "
                                 f"{node.field_name!r}", node.span,
                                 code="RSC-RES-003")
                return env3
            if fld.immutable and not (self._in_constructor and is_this):
                self.diags.error(ErrorKind.MUTABILITY,
                                 f"cannot assign to immutable field "
                                 f"{node.field_name!r} outside the constructor",
                                 node.span, code="RSC-MUT-001")
            if not inner.mutability.allows_write and \
                    not (self._in_constructor and is_this):
                self.diags.error(ErrorKind.MUTABILITY,
                                 f"cannot mutate field {node.field_name!r} through "
                                 f"a {inner.mutability} reference", node.span,
                                 code="RSC-MUT-002")
            expected = fld.type
            if target_term is not None:
                expected = subst_terms(expected, {"this": target_term})
            self.constraints.add_sub(env3,
                                     _with_self(value_type, value_term),
                                     expected,
                                     f"assignment to field {node.field_name!r}",
                                     node.span, code="RSC-SUB-004")
            # Inside a constructor, record the exact value of the field so later
            # field refinements (e.g. grid<this.w, this.h>) can be established.
            if self._in_constructor and is_this and value_term is not None:
                env3 = env3.guard(eq(Field(Var("this"), node.field_name), value_term))
        elif isinstance(inner, TObject):
            if node.field_name in inner.fields:
                _mut, ftype = inner.fields[node.field_name]
                self.constraints.add_sub(env3, _with_self(value_type, value_term),
                                         ftype,
                                         f"assignment to field {node.field_name!r}",
                                         node.span, code="RSC-SUB-004")
        return env3

    def _check_setindex(self, node: ir.ISetIndex, env: Env) -> None:
        target_type, env2, target_term = self._synth(node.target, env)
        index_type, env3, index_term = self._synth(node.index, env2)
        value_type, env4, value_term = self._synth(node.value, env3)
        _binders, inner = unpack_exists(target_type)
        if isinstance(inner, TArray):
            if not inner.mutability.allows_write:
                self.diags.error(ErrorKind.MUTABILITY,
                                 "cannot write through an immutable/read-only "
                                 "array reference", node.span,
                                 code="RSC-MUT-002")
            self._array_bounds(env4, target_term, index_type, index_term, node.span)
            self.constraints.add_sub(env4, _with_self(value_type, value_term),
                                     inner.elem, "array element write", node.span,
                                     code="RSC-SUB-004")
        elif isinstance(inner, TPrim) and inner.name == "any":
            pass
        else:
            self.constraints.add_dead_code(env4, "indexed write into a non-array",
                                           node.span, ErrorKind.BOUNDS,
                                           code="RSC-BND-003")

    # ------------------------------------------------------------------
    # expression synthesis
    # ------------------------------------------------------------------

    def _synth(self, expr: ast.Expression, env: Env
               ) -> Tuple[RType, Env, Optional[Expr]]:
        """Synthesise a refinement type for ``expr``.

        Returns ``(type, env, term)``: the environment may gain bindings for
        intermediate results (e.g. existential openings), and ``term`` is the
        logical term denoting the expression when it is pure."""
        term = self.embedder.term(expr)

        if isinstance(expr, ast.NumberLit):
            if isinstance(expr.value, int):
                return number(eq(VALUE_VAR, IntLit(expr.value))), env, term
            return number(), env, None
        if isinstance(expr, ast.StringLit):
            return string(eq(VALUE_VAR, StrLit(expr.value))), env, term
        if isinstance(expr, ast.BoolLitE):
            return boolean(eq(VALUE_VAR, BoolLit(expr.value))), env, term
        if isinstance(expr, ast.NullLit):
            return TPrim(name="null"), env, None
        if isinstance(expr, ast.UndefinedLit):
            return undefined_t(), env, None
        if isinstance(expr, ast.ThisRef):
            t = env.lookup("this")
            if t is None:
                self.diags.error(ErrorKind.RESOLUTION, "`this` used outside a class",
                                 expr.span, code="RSC-RES-002")
                return TPrim(name="any"), env, term
            return selfify(t, Var("this")), env, term
        if isinstance(expr, ast.VarRef):
            return self._synth_var(expr, env, term)
        if isinstance(expr, ast.Unary):
            return self._synth_unary(expr, env, term)
        if isinstance(expr, ast.Binary):
            return self._synth_binary(expr, env, term)
        if isinstance(expr, ast.Conditional):
            return self._synth_conditional(expr, env)
        if isinstance(expr, ast.Member):
            return self._synth_member(expr, env, term)
        if isinstance(expr, ast.Index):
            return self._synth_index(expr, env)
        if isinstance(expr, ast.Call):
            return self._synth_call(expr, env)
        if isinstance(expr, ast.New):
            return self._synth_new(expr, env)
        if isinstance(expr, ast.Cast):
            return self._synth_cast(expr, env)
        if isinstance(expr, ast.ArrayLit):
            return self._synth_array_lit(expr, env)
        if isinstance(expr, ast.ObjectLit):
            return self._synth_object_lit(expr, env)
        if isinstance(expr, ast.FunctionExpr):
            return self._synth_function_expr(expr, env)
        self.diags.error(ErrorKind.RESOLUTION,
                         f"cannot type expression {type(expr).__name__}", expr.span)
        return TPrim(name="any"), env, None

    def _synth_var(self, expr: ast.VarRef, env: Env,
                   term: Optional[Expr]) -> Tuple[RType, Env, Optional[Expr]]:
        name = expr.name
        if name in self.table.enums:
            return TObject(fields={}, mutability=Mutability.READONLY), env, None
        t = env.lookup(name)
        if t is None:
            if name in self._closures:
                info = self._closures[name]
                return TFun(params=tuple(TParam(p.name, TPrim(name="any"))
                                         for p in info.decl.params),
                            ret=TPrim(name="any")), env, term
            if name == "Math":
                return TObject(fields={}, mutability=Mutability.READONLY), env, None
            self.diags.error(ErrorKind.RESOLUTION, f"unbound variable {name!r}",
                             expr.span, code="RSC-RES-002")
            return TPrim(name="any"), env, term
        return selfify(t, Var(name)), env, term

    def _synth_unary(self, expr: ast.Unary, env: Env,
                     term: Optional[Expr]) -> Tuple[RType, Env, Optional[Expr]]:
        operand_type, env2, operand_term = self._synth(expr.operand, env)
        if expr.op == "typeof":
            if operand_term is not None:
                return string(eq(VALUE_VAR, builtins.ttag_of(operand_term))), env2, term
            return string(), env2, None
        if expr.op == "-":
            self._require_number(env2, operand_type, expr.span)
            pred = eq(VALUE_VAR, term) if term is not None else true()
            return number(pred), env2, term
        if expr.op == "!":
            return boolean(), env2, None
        return TPrim(name="any"), env2, None

    def _synth_binary(self, expr: ast.Binary, env: Env,
                      term: Optional[Expr]) -> Tuple[RType, Env, Optional[Expr]]:
        left_type, env2, _lt = self._synth(expr.left, env)
        right_type, env3, _rt = self._synth(expr.right, env2)
        op = expr.op
        if op in ("+", "-", "*", "/", "%", "&", "|"):
            if op == "+" and (_base_name(left_type) == "string" or
                              _base_name(right_type) == "string"):
                return string(), env3, None
            self._require_number(env3, left_type, expr.span)
            self._require_number(env3, right_type, expr.span)
            pred = eq(VALUE_VAR, term) if term is not None else true()
            return number(pred), env3, term
        if op in ("<", "<=", ">", ">=", "==", "!=", "===", "!==", "&&", "||",
                  "instanceof", "in"):
            pred = eq(VALUE_VAR, term) if term is not None and \
                term.sort.name == "Bool" else true()
            return boolean(pred), env3, term
        return TPrim(name="any"), env3, None

    def _synth_conditional(self, expr: ast.Conditional, env: Env
                           ) -> Tuple[RType, Env, Optional[Expr]]:
        _ct, env_c, _ = self._synth(expr.cond, env)
        guard_true = self.embedder.guard(expr.cond, True)
        guard_false = self.embedder.guard(expr.cond, False)
        then_type, then_env, then_term = self._synth(expr.then, env_c.guard(guard_true))
        else_type, else_env, else_term = self._synth(expr.els, env_c.guard(guard_false))
        template = self._fresh_template(base_of(then_type), env_c)
        self.constraints.add_sub(then_env, _with_self(then_type, then_term), template,
                                 "conditional expression (then)", expr.span)
        self.constraints.add_sub(else_env, _with_self(else_type, else_term), template,
                                 "conditional expression (else)", expr.span)
        return template, env_c, None

    def _synth_member(self, expr: ast.Member, env: Env,
                      term: Optional[Expr]) -> Tuple[RType, Env, Optional[Expr]]:
        # enum constant: TypeFlags.Object
        if isinstance(expr.target, ast.VarRef) and expr.target.name in self.table.enums:
            members = self.table.enums[expr.target.name]
            if expr.name in members:
                value = members[expr.name]
                return number(eq(VALUE_VAR, IntLit(value))), env, IntLit(value)
        target_type, env2, target_term = self._synth(expr.target, env)
        _binders, inner = unpack_exists(target_type)
        if isinstance(inner, TArray) and expr.name == "length":
            if target_term is not None:
                return (number(conj(le(IntLit(0), VALUE_VAR),
                                    eq(VALUE_VAR, builtins.len_of(target_term)))),
                        env2, term)
            return number(le(IntLit(0), VALUE_VAR)), env2, None
        if isinstance(inner, TPrim) and inner.name == "string" and expr.name == "length":
            return number(le(IntLit(0), VALUE_VAR)), env2, None
        if isinstance(inner, TRef):
            fld = self.table.lookup_field(inner.name, expr.name)
            if fld is not None:
                field_type = fld.type
                if target_term is not None:
                    field_type = subst_terms(field_type, {"this": target_term})
                if fld.immutable and target_term is not None:
                    field_type = selfify(field_type, Field(target_term, expr.name))
                return field_type, env2, term
            method = self.table.lookup_method(inner.name, expr.name)
            if method is not None:
                sig = method.signature
                if target_term is not None:
                    sig = subst_terms(sig, {"this": target_term})
                return sig, env2, None
            self.diags.error(ErrorKind.RESOLUTION,
                             f"{inner.name!r} has no member {expr.name!r}",
                             expr.span, code="RSC-RES-003")
            return TPrim(name="any"), env2, None
        if isinstance(inner, TObject):
            if expr.name in inner.fields:
                _mut, ftype = inner.fields[expr.name]
                if target_term is not None:
                    ftype = subst_terms(ftype, {"this": target_term})
                return ftype, env2, term
        if isinstance(inner, TPrim) and inner.name == "any":
            return TPrim(name="any"), env2, term
        # property access on undefined/null is a safety violation
        if isinstance(inner, TPrim) and inner.name in ("undefined", "null"):
            self.constraints.add_dead_code(env2,
                                           f"property access {expr.name!r} on "
                                           f"{inner.name}", expr.span,
                                           ErrorKind.BOUNDS, code="RSC-BND-002")
            return TPrim(name="any"), env2, None
        if isinstance(inner, TUnion):
            # accessing a member of a union requires the undefined/null parts
            # to be provably absent
            for member in inner.members:
                if member.base_name() in ("undefined", "null"):
                    hyps = env2.hypotheses()
                    if target_term is not None:
                        hyps.append(embed(inner, target_term))
                        self.constraints.add_implication(
                            hyps, ne(builtins.ttag_of(target_term),
                                     StrLit("undefined")),
                            f"possibly-undefined receiver for {expr.name!r}",
                            expr.span, ErrorKind.BOUNDS, code="RSC-BND-002")
            non_null = [m for m in inner.members
                        if m.base_name() not in ("undefined", "null")]
            if len(non_null) == 1:
                fake = ast.Member(target=expr.target, name=expr.name, span=expr.span)
                # re-dispatch on the non-null member
                return self._member_of_type(non_null[0], fake, env2, target_term, term)
        return TPrim(name="any"), env2, None

    def _member_of_type(self, inner: RType, expr: ast.Member, env: Env,
                        target_term: Optional[Expr], term: Optional[Expr]
                        ) -> Tuple[RType, Env, Optional[Expr]]:
        if isinstance(inner, TRef):
            fld = self.table.lookup_field(inner.name, expr.name)
            if fld is not None:
                field_type = fld.type
                if target_term is not None:
                    field_type = subst_terms(field_type, {"this": target_term})
                    if fld.immutable:
                        field_type = selfify(field_type, Field(target_term, expr.name))
                return field_type, env, term
        if isinstance(inner, TArray) and expr.name == "length":
            if inner.mutability.allows_length_refinement and target_term is not None:
                return number(eq(VALUE_VAR, builtins.len_of(target_term))), env, term
            return number(le(IntLit(0), VALUE_VAR)), env, None
        return TPrim(name="any"), env, None

    def _synth_index(self, expr: ast.Index, env: Env
                     ) -> Tuple[RType, Env, Optional[Expr]]:
        target_type, env2, target_term = self._synth(expr.target, env)
        index_type, env3, index_term = self._synth(expr.index, env2)
        _binders, inner = unpack_exists(target_type)
        if isinstance(inner, TArray):
            self._array_bounds(env3, target_term, index_type, index_term, expr.span)
            return inner.elem, env3, None
        if isinstance(inner, TPrim) and inner.name == "string":
            return string(), env3, None
        if isinstance(inner, TObject) or (isinstance(inner, TPrim) and
                                          inner.name == "any"):
            return TPrim(name="any"), env3, None
        if isinstance(inner, TRef):
            # indexable class (e.g. a map-like interface): element type unknown
            return TPrim(name="any"), env3, None
        self.constraints.add_dead_code(env3, "indexing a non-array value", expr.span,
                                       ErrorKind.BOUNDS, code="RSC-BND-003")
        return TPrim(name="any"), env3, None

    def _array_bounds(self, env: Env, array_term: Optional[Expr],
                      index_type: RType, index_term: Optional[Expr],
                      span: SourceSpan) -> None:
        """Emit the obligation ``0 <= i < len(a)`` (section 2.1.1)."""
        hyps = env.hypotheses()
        index = index_term if index_term is not None else VALUE_VAR
        if index_term is None:
            hyps.append(embed(index_type, VALUE_VAR))
        self.constraints.add_implication(hyps, le(IntLit(0), index),
                                         "array index lower bound", span,
                                         ErrorKind.BOUNDS, code="RSC-BND-001")
        if array_term is not None:
            self.constraints.add_implication(hyps,
                                             lt(index, builtins.len_of(array_term)),
                                             "array index upper bound", span,
                                             ErrorKind.BOUNDS, code="RSC-BND-001")
        else:
            self.constraints.add_implication(hyps, BoolLit(False),
                                             "array index upper bound "
                                             "(unknown array length)", span,
                                             ErrorKind.BOUNDS, code="RSC-BND-001")

    # -- calls -----------------------------------------------------------------------

    def _synth_call(self, expr: ast.Call, env: Env
                    ) -> Tuple[RType, Env, Optional[Expr]]:
        callee = expr.callee
        # assert(p): the argument must be provably true (dead-code assertions).
        if isinstance(callee, ast.VarRef) and callee.name == "assert" and expr.args:
            arg = expr.args[0]
            _t, env2, _ = self._synth(arg, env)
            pred = self.embedder.predicate(arg)
            self.constraints.add_implication(env2.hypotheses(), pred,
                                             "assert", expr.span, ErrorKind.OVERLOAD,
                                             code="RSC-OVR-002")
            return void(), env2, None
        if isinstance(callee, ast.VarRef) and callee.name == "assume":
            return void(), env, None

        # Math.<fn>(...)
        if isinstance(callee, ast.Member) and isinstance(callee.target, ast.VarRef) \
                and callee.target.name == "Math":
            sig = prelude.MATH_METHODS.get(callee.name)
            if sig is not None:
                return self._apply(sig, expr.args, env, expr.span, None)
            return number(), env, None

        # method call on an object/array/string
        if isinstance(callee, ast.Member):
            return self._synth_method_call(expr, callee, env)

        # plain function call
        callee_type, env2, _ = self._synth(callee, env)
        closure = self._closure_for(callee)
        _binders, inner = unpack_exists(callee_type)
        if isinstance(inner, (TFun, TInter)):
            fun = self._select_overload(inner, len(expr.args))
            return self._apply(fun, expr.args, env2, expr.span, closure)
        if isinstance(inner, TPrim) and inner.name == "any":
            for arg in expr.args:
                _t, env2, _ = self._synth(arg, env2)
            return TPrim(name="any"), env2, None
        self.constraints.add_dead_code(env2, "calling a non-function value",
                                       expr.span, code="RSC-BND-003")
        return TPrim(name="any"), env2, None

    def _synth_method_call(self, expr: ast.Call, callee: ast.Member, env: Env
                           ) -> Tuple[RType, Env, Optional[Expr]]:
        target_type, env2, target_term = self._synth(callee.target, env)
        _binders, inner = unpack_exists(target_type)
        name = callee.name
        if isinstance(inner, TArray):
            if name in ("push", "pop", "shift", "unshift", "sort", "reverse") and \
                    not inner.mutability.allows_write:
                self.diags.error(ErrorKind.MUTABILITY,
                                 f"array method {name!r} requires a mutable receiver",
                                 expr.span, code="RSC-MUT-003")
            sig = prelude.array_method(name, inner.elem, target_term,
                                       inner.mutability)
            if sig is None:
                self.diags.warning(ErrorKind.RESOLUTION,
                                   f"unknown array method {name!r}", expr.span)
                return TPrim(name="any"), env2, None
            return self._apply(sig, expr.args, env2, expr.span, None)
        if isinstance(inner, TPrim) and inner.name == "string":
            sig = prelude.string_method(name)
            if sig is None:
                return TPrim(name="any"), env2, None
            return self._apply(sig, expr.args, env2, expr.span, None)
        if isinstance(inner, TRef):
            method = self.table.lookup_method(inner.name, name)
            if method is None:
                self.diags.error(ErrorKind.RESOLUTION,
                                 f"{inner.name!r} has no method {name!r}",
                                 expr.span, code="RSC-RES-003")
                return TPrim(name="any"), env2, None
            if not inner.mutability.is_subtype_of(method.receiver_mutability):
                self.diags.error(ErrorKind.MUTABILITY,
                                 f"method {name!r} requires a "
                                 f"{method.receiver_mutability} receiver but was "
                                 f"called on a {inner.mutability} reference",
                                 expr.span, code="RSC-MUT-003")
            sig = method.signature
            if target_term is not None:
                sig = subst_terms(sig, {"this": target_term})
            return self._apply(sig, expr.args, env2, expr.span, None)
        if isinstance(inner, (TObject,)):
            if name in inner.fields:
                _mut, ftype = inner.fields[name]
                _fb, finner = unpack_exists(ftype)
                if isinstance(finner, (TFun, TInter)):
                    fun = self._select_overload(finner, len(expr.args))
                    return self._apply(fun, expr.args, env2, expr.span, None)
        if isinstance(inner, TPrim) and inner.name == "any":
            for arg in expr.args:
                _t, env2, _ = self._synth(arg, env2)
            return TPrim(name="any"), env2, None
        self.diags.warning(ErrorKind.RESOLUTION,
                           f"cannot resolve method {name!r} on "
                           f"{inner.base_name()!r}", expr.span)
        return TPrim(name="any"), env2, None

    def _closure_for(self, callee: ast.Expression) -> Optional[ClosureInfo]:
        if isinstance(callee, ast.VarRef):
            return self._closures.get(callee.name)
        return None

    def _select_overload(self, fun: RType, arity: int) -> TFun:
        if isinstance(fun, TFun):
            return fun
        assert isinstance(fun, TInter)
        for member in fun.members:
            if member.arity() == arity:
                return member
        return fun.members[0]

    def _apply(self, fun: TFun, args: List[ast.Expression], env: Env,
               span: SourceSpan, _callee_closure: Optional[ClosureInfo]
               ) -> Tuple[RType, Env, Optional[Expr]]:
        """Check a call against (an instantiation of) ``fun``."""
        env_cur = env
        arg_types: List[Optional[RType]] = []
        arg_terms: List[Optional[Expr]] = []
        closures: List[Optional[object]] = []
        for arg in args:
            if isinstance(arg, ast.FunctionExpr):
                closures.append(arg)
                arg_types.append(None)
                arg_terms.append(None)
                continue
            if isinstance(arg, ast.VarRef) and arg.name in self._closures and \
                    env.lookup(arg.name) is not None and \
                    isinstance(unpack_exists(env.lookup(arg.name))[1], TFun) and \
                    arg.name in self._closures:
                closures.append(self._closures[arg.name])
                arg_types.append(None)
                arg_terms.append(None)
                continue
            closures.append(None)
            t, env_cur, term = self._synth(arg, env_cur)
            arg_types.append(t)
            arg_terms.append(term)

        # instantiate generics
        if fun.tparams:
            instantiation = self._infer_instantiation(fun, arg_types, env_cur)
            # drop the binders before substituting (they would otherwise
            # shadow the very variables being instantiated)
            opened = TFun(pred=fun.pred, tparams=(), params=fun.params, ret=fun.ret)
            fun = subst_types(opened, instantiation)

        # dependent parameters: substitute parameter names by argument terms
        param_subst: Dict[str, Expr] = {}
        for index, param in enumerate(fun.params):
            if index < len(arg_terms) and arg_terms[index] is not None:
                param_subst[param.name] = arg_terms[index]

        for index, param in enumerate(fun.params):
            expected = subst_terms(param.type, param_subst)
            if index >= len(args):
                # missing argument: undefined must be acceptable
                self.constraints.add_sub(env_cur, undefined_t(), expected,
                                         f"missing argument {param.name!r}", span,
                                         code="RSC-SUB-002")
                continue
            closure = closures[index]
            _eb, expected_inner = unpack_exists(expected)
            if closure is not None and isinstance(expected_inner, (TFun, TInter)):
                self._check_closure_against(closure, expected_inner, env_cur)
                continue
            if closure is not None:
                # function value flowing into a non-function parameter
                self.constraints.add_dead_code(
                    env_cur, f"function passed for parameter {param.name!r} of "
                             f"non-function type", span)
                continue
            actual = arg_types[index]
            assert actual is not None
            self.constraints.add_sub(env_cur,
                                     _with_self(actual, arg_terms[index]), expected,
                                     f"argument for {param.name!r}", span,
                                     code="RSC-SUB-002")

        result = subst_terms(fun.ret, param_subst)
        return result, env_cur, None

    def _check_closure_against(self, closure, expected: RType, env: Env) -> None:
        expected_fun = expected if isinstance(expected, TFun) else expected.members[0]
        if isinstance(closure, ast.FunctionExpr):
            decl = ast.FunctionDecl(name="<lambda>", params=closure.params,
                                    ret=closure.ret, body=closure.body,
                                    span=closure.span)
            self._check_callable(decl, expected_fun, env, this_type=None)
            return
        assert isinstance(closure, ClosureInfo)
        self.stats.overloads_checked += 1
        self._check_callable(closure.decl, expected_fun, closure.env, this_type=None)

    def _infer_instantiation(self, fun: TFun, arg_types: List[Optional[RType]],
                             env: Env) -> Dict[str, RType]:
        """Instantiate each type parameter with a kappa template whose base is
        inferred from the matching argument (step 1 of section 2.2.1)."""
        bases: Dict[str, RType] = {}

        def unify(param: RType, arg: Optional[RType]) -> None:
            if arg is None:
                return
            _pb, param_inner = unpack_exists(param)
            _ab, arg_inner = unpack_exists(arg)
            if isinstance(param_inner, TVar):
                bases.setdefault(param_inner.name, base_of(arg_inner))
            elif isinstance(param_inner, TArray) and isinstance(arg_inner, TArray):
                unify(param_inner.elem, arg_inner.elem)
            elif isinstance(param_inner, TFun) and isinstance(arg_inner, TFun):
                for pp, ap in zip(param_inner.params, arg_inner.params):
                    unify(pp.type, ap.type)
                unify(param_inner.ret, arg_inner.ret)

        for index, param in enumerate(fun.params):
            arg = arg_types[index] if index < len(arg_types) else None
            unify(param.type, arg)

        instantiation: Dict[str, RType] = {}
        for tparam in fun.tparams:
            base = bases.get(tparam)
            if base is None:
                instantiation[tparam] = TPrim(name="any")
            else:
                instantiation[tparam] = self._fresh_template(base, env)
        return instantiation

    # -- construction, casts, literals ---------------------------------------------------

    def _synth_new(self, expr: ast.New, env: Env
                   ) -> Tuple[RType, Env, Optional[Expr]]:
        if expr.class_name == "Array":
            env2 = env
            pred = true()
            elem: RType = TPrim(name="any")
            if len(expr.args) == 1:
                size_type, env2, size_term = self._synth(expr.args[0], env)
                if size_term is not None:
                    pred = eq(builtins.len_of(VALUE_VAR), size_term)
            if expr.targs and expr.targs[0].is_type():
                elem = self.resolver.resolve(expr.targs[0].type, tuple(env.tvars))
            return TArray(elem=elem, mutability=Mutability.UNIQUE, pred=pred), env2, None
        info = self.table.classes.get(expr.class_name)
        if info is None or info.is_interface:
            self.diags.error(ErrorKind.RESOLUTION,
                             f"unknown class {expr.class_name!r}", expr.span,
                             code="RSC-RES-004")
            return TPrim(name="any"), env, None
        ctor = info.constructor
        env_cur = env
        arg_terms: List[Optional[Expr]] = []
        arg_types: List[RType] = []
        for arg in expr.args:
            t, env_cur, term = self._synth(arg, env_cur)
            arg_types.append(t)
            arg_terms.append(term)
        facts: List[Expr] = [self.table.invariant(expr.class_name, VALUE_VAR)]
        if ctor is not None:
            param_subst: Dict[str, Expr] = {}
            for index, param in enumerate(ctor.signature.params):
                if index < len(arg_terms) and arg_terms[index] is not None:
                    param_subst[param.name] = arg_terms[index]
            for index, param in enumerate(ctor.signature.params):
                expected = subst_terms(param.type, param_subst)
                if index < len(arg_types):
                    self.constraints.add_sub(
                        env_cur, _with_self(arg_types[index], arg_terms[index]),
                        expected, f"constructor argument {param.name!r}",
                        expr.span, code="RSC-SUB-002")
                else:
                    self.constraints.add_sub(env_cur, undefined_t(), expected,
                                             f"missing constructor argument "
                                             f"{param.name!r}", expr.span,
                                             code="RSC-SUB-002")
            # exact-value facts for immutable fields assigned from parameters
            for fname, pname in info.ctor_field_params.items():
                fld = info.fields.get(fname)
                if fld is None or not fld.immutable:
                    continue
                if pname in param_subst:
                    facts.append(eq(Field(VALUE_VAR, fname), param_subst[pname]))
        result = TRef(name=expr.class_name, mutability=Mutability.UNIQUE,
                      pred=conj(*facts))
        return result, env_cur, None

    def _synth_cast(self, expr: ast.Cast, env: Env
                    ) -> Tuple[RType, Env, Optional[Expr]]:
        target_type = self.resolver.resolve(expr.type, tuple(env.tvars))
        value_type, env2, term = self._synth(expr.target, env)
        hyps = env2.hypotheses()
        subject = term if term is not None else VALUE_VAR
        hyps.append(embed(value_type, subject))
        _binders, target_inner = unpack_exists(target_type)
        goals: List[Expr] = []
        if isinstance(target_inner, TRef):
            goals.append(builtins.impl_of(subject, StrLit(target_inner.name)))
            from repro.logic.terms import substitute as _subst
            goals.append(_subst(target_inner.pred, {VALUE_VAR.name: subject}))
        else:
            from repro.logic.terms import substitute as _subst
            goals.append(_subst(target_inner.pred, {VALUE_VAR.name: subject}))
        for goal in goals:
            if goal.is_true():
                continue
            self.constraints.add_implication(hyps, goal, "downcast", expr.span,
                                             ErrorKind.CAST, code="RSC-CAST-001")
        result = target_type
        if isinstance(target_inner, TRef) and isinstance(
                unpack_exists(value_type)[1], TRef):
            # keep the source mutability through the cast
            source_mut = unpack_exists(value_type)[1].mutability
            result = TRef(name=target_inner.name, targs=target_inner.targs,
                          mutability=source_mut, pred=target_inner.pred)
        if term is not None:
            result = selfify(result, term)
        return result, env2, term

    def _synth_array_lit(self, expr: ast.ArrayLit, env: Env
                         ) -> Tuple[RType, Env, Optional[Expr]]:
        env_cur = env
        elem: RType = TPrim(name="any")
        for index, element in enumerate(expr.elements):
            t, env_cur, _ = self._synth(element, env_cur)
            if index == 0:
                elem = base_of(t)
        pred = eq(builtins.len_of(VALUE_VAR), IntLit(len(expr.elements)))
        return TArray(elem=elem, mutability=Mutability.UNIQUE, pred=pred), env_cur, None

    def _synth_object_lit(self, expr: ast.ObjectLit, env: Env
                          ) -> Tuple[RType, Env, Optional[Expr]]:
        env_cur = env
        fields: Dict[str, Tuple[Mutability, RType]] = {}
        for name, value in expr.fields:
            t, env_cur, term = self._synth(value, env_cur)
            fields[name] = (Mutability.MUTABLE, _with_self(t, term))
        return TObject(fields=fields, mutability=Mutability.UNIQUE), env_cur, None

    def _synth_function_expr(self, expr: ast.FunctionExpr, env: Env
                             ) -> Tuple[RType, Env, Optional[Expr]]:
        if all(p.type is not None for p in expr.params) and expr.ret is not None:
            params = tuple(TParam(p.name, self.resolver.resolve(p.type,
                                                                tuple(env.tvars)))
                           for p in expr.params)
            ret = self.resolver.resolve(expr.ret, tuple(env.tvars))
            sig = TFun(params=params, ret=ret)
            decl = ast.FunctionDecl(name="<lambda>", params=expr.params, ret=expr.ret,
                                    body=expr.body, span=expr.span)
            self._check_callable(decl, sig, env, this_type=None)
            return sig, env, None
        return TFun(params=tuple(TParam(p.name, TPrim(name="any"))
                                 for p in expr.params),
                    ret=TPrim(name="any")), env, None

    # -- misc helpers -----------------------------------------------------------------

    def _require_number(self, env: Env, t: RType, span: SourceSpan) -> None:
        _binders, inner = unpack_exists(t)
        if isinstance(inner, (TPrim,)) and inner.name in ("number", "any", "bot"):
            return
        if isinstance(inner, TVar):
            return
        self.constraints.add_sub(env, t, number(), "arithmetic operand", span)

    def _fresh_template(self, base: RType, env: Env) -> RType:
        """A refinement template ``{v: base | kappa(v, scope...)}``."""
        owner = self.constraints.current_owner
        if owner not in self._kappa_counters:
            self._kappa_counters[owner] = itertools.count()
        kname = f"{KVAR_PREFIX}{owner or ''}#{next(self._kappa_counters[owner])}"
        kinds: Dict[str, str] = {}
        scope: List[str] = []
        for name in env.scope_names():
            if name == "this":
                continue
            t = env.lookup(name)
            _b, inner = unpack_exists(t) if t is not None else ((), TPrim(name="any"))
            # Function-typed and opaque bindings never appear usefully inside
            # refinements; dropping them keeps the qualifier pool small.
            if isinstance(inner, (TFun, TInter)):
                continue
            if isinstance(inner, TArray):
                kinds[name] = "array"
            elif isinstance(inner, TPrim) and inner.name == "number":
                kinds[name] = "number"
            elif isinstance(inner, TPrim) and inner.name in ("string", "boolean"):
                kinds[name] = inner.name
            elif isinstance(inner, (TRef, TObject)):
                kinds[name] = "object"
            else:
                kinds[name] = "any"
            scope.append(name)
        self.kappas.register(kname, [VALUE_VAR.name] + scope, kinds,
                             owner=owner)
        self.stats.kappas_created += 1
        occurrence = App(kname, tuple([VALUE_VAR] + [Var(s) for s in scope]),
                         sort=BoolSort())
        template = base_of(base)
        return refine(template, occurrence)


def BoolSort():
    from repro.logic.sorts import BOOL
    return BOOL


def _with_self(t: RType, term: Optional[Expr]) -> RType:
    if term is None:
        return t
    return selfify(t, term)


def _base_name(t: RType) -> str:
    _b, inner = unpack_exists(t)
    return inner.base_name()


def _receiver_mut(text: Optional[str]) -> Mutability:
    # Methods default to a mutable receiver (the common case in the
    # benchmarks); @ReadOnly / @Immutable annotations restrict it.
    if text is None:
        return Mutability.MUTABLE
    try:
        return Mutability.parse(text)
    except ValueError:
        return Mutability.MUTABLE


def _ctor_field_params(ctor: ast.MethodDecl) -> Dict[str, str]:
    """Detect ``this.f = p`` assignments of constructor parameters to fields."""
    result: Dict[str, str] = {}
    if ctor.body is None:
        return result
    param_names = {p.name for p in ctor.sig.params}

    def walk(stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.statements:
                walk(s)
        elif isinstance(stmt, ast.Assign):
            target = stmt.target
            if isinstance(target, ast.Member) and isinstance(target.target,
                                                             ast.ThisRef):
                if isinstance(stmt.value, ast.VarRef) and \
                        stmt.value.name in param_names:
                    result[target.name] = stmt.value.name

    walk(ctor.body)
    return result


def _transpose(values: List[str]) -> List[str]:
    return values
