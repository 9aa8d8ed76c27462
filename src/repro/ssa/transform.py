"""The SSA transformation from FRSC statement bodies to IRSC.

The transformer follows Figure 3 of the paper: a translation environment
``delta`` maps source variable names to their current SSA names.  Statements
become nested ``let``/``letif``/``letwhile`` contexts; variables assigned in
both arms of a conditional (or in a loop body) become Phi variables with
fresh names.

Extensions over the paper's core (needed for the benchmarks):

* loops (``letwhile``) with loop-header Phi variables — these are what liquid
  inference later solves for loop invariants (section 2.2.2);
* early ``return`` inside branches;
* nested function declarations and function expressions (closures): their
  bodies are renamed with the SSA environment at the definition point, so
  refinements about captured variables remain meaningful;
* field and array-element writes, kept as explicit effect nodes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import SsaError
from repro.lang import ast
from repro.node import replace
from repro.ssa import ir

Delta = Dict[str, str]


class SsaTransformer:
    def __init__(self) -> None:
        self._counter = itertools.count()

    # -- public entry points --------------------------------------------------

    def function(self, decl: ast.FunctionDecl,
                 extra_names: Sequence[str] = ()) -> ir.IRFunction:
        """SSA-convert a function declaration's body."""
        if decl.body is None:
            raise SsaError(f"function {decl.name} has no body")
        delta: Delta = {p.name: p.name for p in decl.params}
        for name in extra_names:
            delta.setdefault(name, name)
        body = self.block(decl.body, delta)
        return ir.IRFunction(name=decl.name, params=[p.name for p in decl.params],
                             body=body, decl=decl)

    def block(self, block: ast.Block, delta: Delta,
              tail: Optional[Callable[[Delta], ir.IBody]] = None) -> ir.IBody:
        if tail is None:
            tail = lambda d: ir.IRet(value=None)
        return self._stmts(list(block.statements), dict(delta), tail)

    # -- fresh names -----------------------------------------------------------

    def _fresh(self, base: str) -> str:
        return f"{base}#{next(self._counter)}"

    # -- statements -------------------------------------------------------------

    def _stmts(self, stmts: List[ast.Statement], delta: Delta,
               tail: Callable[[Delta], ir.IBody]) -> ir.IBody:
        if not stmts:
            return tail(delta)
        stmt, rest = stmts[0], stmts[1:]
        continue_with = lambda d: self._stmts(rest, d, tail)

        if isinstance(stmt, ast.Skip):
            return continue_with(delta)

        if isinstance(stmt, ast.Block):
            # Inner blocks share the scope (JS var semantics are close enough for
            # the benchmarks: declarations inside plain blocks stay visible).
            return self._stmts(list(stmt.statements) + rest, delta, tail)

        if isinstance(stmt, ast.VarDecl):
            ssa_name = self._fresh(stmt.name)
            init = stmt.init if stmt.init is not None else ast.UndefinedLit(span=stmt.span)
            expr = self.rename_expr(init, delta)
            new_delta = dict(delta)
            new_delta[stmt.name] = ssa_name
            return ir.ILet(name=ssa_name, expr=expr,
                           rest=self._stmts(rest, new_delta, tail),
                           type_ann=stmt.type, span=stmt.span)

        if isinstance(stmt, ast.Assign):
            return self._assign(stmt, delta, continue_with)

        if isinstance(stmt, ast.ExprStmt):
            expr = self.rename_expr(stmt.expr, delta)
            return ir.ILet(name=self._fresh("_"), expr=expr,
                           rest=continue_with(delta), span=stmt.span)

        if isinstance(stmt, ast.Return):
            value = self.rename_expr(stmt.value, delta) if stmt.value is not None else None
            return ir.IRet(value=value, span=stmt.span)

        if isinstance(stmt, ast.If):
            return self._if(stmt, delta, continue_with)

        if isinstance(stmt, ast.While):
            return self._while(stmt, delta, continue_with)

        if isinstance(stmt, ast.FunctionDeclStmt):
            decl = stmt.decl
            renamed = self._rename_function_decl(decl, delta)
            new_delta = dict(delta)
            new_delta[decl.name] = decl.name
            inner = SsaTransformer()
            inner._counter = self._counter
            fn_delta: Delta = {p.name: p.name for p in renamed.params}
            # captured variables have already been renamed inside the body
            fn_body = inner.block(renamed.body, fn_delta) if renamed.body else ir.IRet()
            return ir.ILetFunc(name=decl.name, decl=renamed, body=fn_body,
                               rest=self._stmts(rest, new_delta, tail), span=stmt.span)

        raise SsaError(f"unsupported statement {type(stmt).__name__}")

    def _assign(self, stmt: ast.Assign, delta: Delta,
                continue_with: Callable[[Delta], ir.IBody]) -> ir.IBody:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            if target.name not in delta:
                # assignment to an undeclared variable: implicitly declare it
                delta = dict(delta)
                delta[target.name] = target.name
            ssa_name = self._fresh(target.name)
            expr = self.rename_expr(stmt.value, delta)
            new_delta = dict(delta)
            new_delta[target.name] = ssa_name
            return ir.ILet(name=ssa_name, expr=expr, rest=continue_with(new_delta),
                           span=stmt.span)
        if isinstance(target, ast.Member):
            return ir.ISetField(target=self.rename_expr(target.target, delta),
                                field_name=target.name,
                                value=self.rename_expr(stmt.value, delta),
                                rest=continue_with(delta), span=stmt.span)
        if isinstance(target, ast.Index):
            return ir.ISetIndex(target=self.rename_expr(target.target, delta),
                                index=self.rename_expr(target.index, delta),
                                value=self.rename_expr(stmt.value, delta),
                                rest=continue_with(delta), span=stmt.span)
        raise SsaError("invalid assignment target")

    def _if(self, stmt: ast.If, delta: Delta,
            continue_with: Callable[[Delta], ir.IBody]) -> ir.IBody:
        cond = self.rename_expr(stmt.cond, delta)
        else_block = stmt.els if stmt.els is not None else ast.Block(statements=[])
        phi_sources = sorted((assigned_vars(stmt.then) | assigned_vars(else_block))
                             & set(delta.keys()))
        join_tail = lambda d: ir.IJoin(values=[d[x] for x in phi_sources])
        then_body = self._stmts(list(stmt.then.statements), dict(delta), join_tail)
        else_body = self._stmts(list(else_block.statements), dict(delta), join_tail)
        phis: List[ir.Phi] = []
        new_delta = dict(delta)
        for x in phi_sources:
            phi_name = self._fresh(x)
            phis.append(ir.Phi(name=phi_name, then_name="", else_name="",
                               source_name=x))
            new_delta[x] = phi_name
        return ir.ILetIf(cond=cond, then=then_body, els=else_body, phis=phis,
                         rest=continue_with(new_delta), span=stmt.span)

    def _while(self, stmt: ast.While, delta: Delta,
               continue_with: Callable[[Delta], ir.IBody]) -> ir.IBody:
        phi_sources = sorted(assigned_vars(stmt.body) & set(delta.keys()))
        phis: List[ir.LoopPhi] = []
        loop_delta = dict(delta)
        for x in phi_sources:
            phi_name = self._fresh(x)
            phis.append(ir.LoopPhi(name=phi_name, init_name=delta[x], body_name="",
                                   source_name=x))
            loop_delta[x] = phi_name
        cond = self.rename_expr(stmt.cond, loop_delta)
        invariant = (self.rename_expr(stmt.invariant, loop_delta)
                     if stmt.invariant is not None else None)
        join_tail = lambda d: ir.IJoin(values=[d[x] for x in phi_sources])
        body = self._stmts(list(stmt.body.statements), dict(loop_delta), join_tail)
        return ir.ILetWhile(phis=phis, cond=cond, body=body,
                            rest=continue_with(dict(loop_delta)),
                            invariant=invariant, span=stmt.span)

    # -- expression renaming -----------------------------------------------------

    def rename_expr(self, e: ast.Expression, delta: Delta) -> ast.Expression:
        if isinstance(e, ast.VarRef):
            if e.name in delta:
                return ast.VarRef(name=delta[e.name], span=e.span)
            return e
        if isinstance(e, ast.Unary):
            return replace(e, operand=self.rename_expr(e.operand, delta))
        if isinstance(e, ast.Binary):
            return replace(e, left=self.rename_expr(e.left, delta),
                           right=self.rename_expr(e.right, delta))
        if isinstance(e, ast.Conditional):
            return replace(e, cond=self.rename_expr(e.cond, delta),
                           then=self.rename_expr(e.then, delta),
                           els=self.rename_expr(e.els, delta))
        if isinstance(e, ast.Call):
            return replace(e, callee=self.rename_expr(e.callee, delta),
                           args=[self.rename_expr(a, delta) for a in e.args])
        if isinstance(e, ast.New):
            return replace(e, args=[self.rename_expr(a, delta) for a in e.args])
        if isinstance(e, ast.Member):
            return replace(e, target=self.rename_expr(e.target, delta))
        if isinstance(e, ast.Index):
            return replace(e, target=self.rename_expr(e.target, delta),
                           index=self.rename_expr(e.index, delta))
        if isinstance(e, ast.Cast):
            return replace(e, target=self.rename_expr(e.target, delta))
        if isinstance(e, ast.ArrayLit):
            return replace(e, elements=[self.rename_expr(x, delta) for x in e.elements])
        if isinstance(e, ast.ObjectLit):
            return replace(e, fields=[(n, self.rename_expr(x, delta))
                                      for n, x in e.fields])
        if isinstance(e, ast.FunctionExpr):
            shadowed = {p.name for p in e.params}
            inner = {k: v for k, v in delta.items() if k not in shadowed}
            return replace(e, body=self._rename_block(e.body, inner))
        return e

    def _rename_function_decl(self, decl: ast.FunctionDecl, delta: Delta) -> ast.FunctionDecl:
        shadowed = {p.name for p in decl.params} | {decl.name}
        inner = {k: v for k, v in delta.items() if k not in shadowed}
        body = self._rename_block(decl.body, inner) if decl.body is not None else None
        return replace(decl, body=body)

    def _rename_block(self, block: ast.Block, delta: Delta) -> ast.Block:
        new_delta = dict(delta)
        return ast.Block(statements=[self._rename_stmt(s, new_delta)
                                     for s in block.statements], span=block.span)

    def _rename_stmt(self, stmt: ast.Statement, delta: Delta) -> ast.Statement:
        """Non-SSA renaming of captured variables inside closures.  ``delta``
        is updated in place: locally declared names shadow outer ones."""
        if isinstance(stmt, ast.VarDecl):
            init = self.rename_expr(stmt.init, delta) if stmt.init is not None else None
            delta.pop(stmt.name, None)
            return replace(stmt, init=init)
        if isinstance(stmt, ast.Assign):
            return replace(stmt, target=self.rename_expr(stmt.target, delta),
                           value=self.rename_expr(stmt.value, delta))
        if isinstance(stmt, ast.ExprStmt):
            return replace(stmt, expr=self.rename_expr(stmt.expr, delta))
        if isinstance(stmt, ast.Return):
            value = self.rename_expr(stmt.value, delta) if stmt.value is not None else None
            return replace(stmt, value=value)
        if isinstance(stmt, ast.If):
            els = self._rename_block(stmt.els, delta) if stmt.els is not None else None
            return replace(stmt, cond=self.rename_expr(stmt.cond, delta),
                           then=self._rename_block(stmt.then, delta), els=els)
        if isinstance(stmt, ast.While):
            inv = (self.rename_expr(stmt.invariant, delta)
                   if stmt.invariant is not None else None)
            return replace(stmt, cond=self.rename_expr(stmt.cond, delta),
                           body=self._rename_block(stmt.body, delta), invariant=inv)
        if isinstance(stmt, ast.Block):
            return self._rename_block(stmt, dict(delta))
        if isinstance(stmt, ast.FunctionDeclStmt):
            return replace(stmt, decl=self._rename_function_decl(stmt.decl, delta))
        return stmt


def assigned_vars(node: ast.Statement) -> Set[str]:
    """Source variables assigned (not declared) anywhere inside ``node``."""
    out: Set[str] = set()

    def walk(stmt: ast.Statement, local: Set[str]) -> None:
        if isinstance(stmt, ast.Block):
            inner = set(local)
            for s in stmt.statements:
                walk(s, inner)
        elif isinstance(stmt, ast.VarDecl):
            local.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.VarRef) and stmt.target.name not in local:
                out.add(stmt.target.name)
        elif isinstance(stmt, ast.If):
            walk(stmt.then, set(local))
            if stmt.els is not None:
                walk(stmt.els, set(local))
        elif isinstance(stmt, ast.While):
            walk(stmt.body, set(local))
        elif isinstance(stmt, ast.FunctionDeclStmt):
            pass

    walk(node, set())
    return out


def ssa_function(decl: ast.FunctionDecl,
                 extra_names: Sequence[str] = ()) -> ir.IRFunction:
    """Convenience wrapper: SSA-convert one function declaration."""
    return SsaTransformer().function(decl, extra_names)
