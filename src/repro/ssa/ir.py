"""The IRSC intermediate representation.

IRSC keeps *expressions* in their source form (``repro.lang.ast`` nodes) but
with every variable reference renamed to its SSA name; the *statement*
structure is replaced by a functional chain of binders:

    body ::= let x = e in body
           | letif [phi...] (e) ? body : body in body
           | letwhile [phi...] (e) body in body
           | letfunc f(params) = body in body
           | e.f <- e ; body
           | e[i] <- e ; body
           | return e
           | join e...            (gives the values of the enclosing Phis)

This mirrors the paper's ``u`` SSA contexts (Figure 3) extended with loops,
early returns, writes and closures.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SourceSpan
from repro.lang import ast
from repro.node import Record, field


class Phi(Record):
    """A conditional-join Phi variable: ``name = phi(then_name, else_name)``."""

    name: str
    then_name: str
    else_name: str
    source_name: str = ""


class LoopPhi(Record):
    """A loop-header Phi variable: ``name = phi(init_name, body_name)``.

    ``body_name`` is the SSA name the variable has at the end of the loop
    body (filled in after the body has been translated)."""

    name: str
    init_name: str
    body_name: str
    source_name: str = ""


class IBody(Record):
    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)


class ILet(IBody):
    """``let name = expr in rest`` (``name`` may be ``_`` for effect-only)."""

    name: str
    expr: ast.Expression
    rest: IBody
    type_ann: Optional[ast.TypeAnn] = None


class ILetIf(IBody):
    cond: ast.Expression
    then: IBody
    els: IBody
    phis: List[Phi]
    rest: IBody


class ILetWhile(IBody):
    phis: List[LoopPhi]
    cond: ast.Expression
    body: IBody
    rest: IBody
    invariant: Optional[ast.Expression] = None


class ILetFunc(IBody):
    """A nested function (closure) definition."""

    name: str
    decl: ast.FunctionDecl
    body: IBody
    rest: IBody


class ISetField(IBody):
    target: ast.Expression
    field_name: str
    value: ast.Expression
    rest: IBody


class ISetIndex(IBody):
    target: ast.Expression
    index: ast.Expression
    value: ast.Expression
    rest: IBody


class IRet(IBody):
    value: Optional[ast.Expression] = None


class IJoin(IBody):
    """End of a branch/loop body: provides the values of the enclosing Phis."""

    values: List[str] = field(default_factory=list)


class IRFunction(Record):
    """An SSA-converted function: parameters keep their names (they are the
    first SSA version of themselves); the body is an IBody chain."""

    name: str
    params: List[str]
    body: IBody
    decl: Optional[ast.FunctionDecl] = None


def terminates(body: IBody) -> bool:
    """Does every path through ``body`` end in ``return``?"""
    if isinstance(body, IRet):
        return True
    if isinstance(body, IJoin):
        return False
    if isinstance(body, ILetIf):
        if terminates(body.then) and terminates(body.els):
            return True
        return terminates(body.rest)
    if isinstance(body, (ILet, ILetFunc, ISetField, ISetIndex)):
        return terminates(body.rest)
    if isinstance(body, ILetWhile):
        return terminates(body.rest)
    return False
