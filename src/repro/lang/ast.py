"""Abstract syntax of nanoTS (the FRSC source language plus section-4 extensions).

Two node families live here:

* *Type annotations* (``TypeAnn`` and subclasses) — the surface syntax of
  refinement types; they are resolved into semantic types
  (:mod:`repro.rtypes.types`) by :mod:`repro.core.resolve`.
* *Program syntax* (expressions, statements, declarations) — the FRSC
  fragment of the paper extended with loops, enums, interfaces, specs and
  function expressions.

Every node class is a mutable :class:`repro.node.Record`: field-wise
``==`` and ``repr``, unhashable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import SourceSpan
from repro.node import Record, field


# ---------------------------------------------------------------------------
# Type annotations (surface syntax of types)
# ---------------------------------------------------------------------------


class TypeAnn(Record):
    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)


class TNameAnn(TypeAnn):
    """A named type: primitive, type variable, alias, class or interface,
    optionally applied to type/term arguments: ``idx<a>``, ``Array<IM, T>``."""

    name: str
    args: List["TypeArg"] = field(default_factory=list)


class TRefineAnn(TypeAnn):
    """``{v: T | p}`` — a refinement of a base annotation."""

    base: TypeAnn
    pred: "Expression"
    value_var: str = "v"


class TArrayAnn(TypeAnn):
    """``T[]`` (mutability defaults from context) or ``IArray<T>`` forms."""

    elem: TypeAnn
    mutability: Optional[str] = None  # "IM" | "MU" | "RO" | "UQ" | None


class TFunAnn(TypeAnn):
    """``<A, B>(x: T1, T2) => T``."""

    tparams: List[str]
    params: List[Tuple[Optional[str], TypeAnn]]
    ret: TypeAnn


class TUnionAnn(TypeAnn):
    members: List[TypeAnn] = field(default_factory=list)


class TypeArg(Record):
    """A type argument: either a type annotation or a logical expression
    (for value-parameterised aliases like ``idx<a>`` or ``natN<n+1>``)."""

    type: Optional[TypeAnn] = None
    expr: Optional["Expression"] = None

    def is_type(self) -> bool:
        return self.type is not None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Record):
    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)


class NumberLit(Expression):
    value: Union[int, float]
    raw: str = ""


class StringLit(Expression):
    value: str


class BoolLitE(Expression):
    value: bool


class NullLit(Expression):
    pass


class UndefinedLit(Expression):
    pass


class VarRef(Expression):
    name: str


class ThisRef(Expression):
    pass


class Unary(Expression):
    op: str  # "!", "-", "+", "typeof"
    operand: Expression


class Binary(Expression):
    op: str
    left: Expression
    right: Expression


class Conditional(Expression):
    cond: Expression
    then: Expression
    els: Expression


class Call(Expression):
    callee: Expression
    args: List[Expression] = field(default_factory=list)
    targs: List[TypeArg] = field(default_factory=list)


class New(Expression):
    class_name: str
    args: List[Expression] = field(default_factory=list)
    targs: List[TypeArg] = field(default_factory=list)


class Member(Expression):
    target: Expression
    name: str


class Index(Expression):
    target: Expression
    index: Expression


class Cast(Expression):
    """``<T> e`` or ``e as T``."""

    target: Expression
    type: TypeAnn


class ArrayLit(Expression):
    elements: List[Expression] = field(default_factory=list)


class ObjectLit(Expression):
    fields: List[Tuple[str, Expression]] = field(default_factory=list)


class FunctionExpr(Expression):
    """Anonymous function / arrow function expression."""

    params: List["Param"] = field(default_factory=list)
    ret: Optional[TypeAnn] = None
    body: "Block" = None  # type: ignore[assignment]
    name: Optional[str] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Record):
    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)


class Block(Statement):
    statements: List[Statement] = field(default_factory=list)


class VarDecl(Statement):
    name: str
    init: Optional[Expression] = None
    type: Optional[TypeAnn] = None
    kind: str = "var"  # var | let | const


class Assign(Statement):
    """``target = value`` where target is a variable, member or index."""

    target: Expression
    value: Expression


class ExprStmt(Statement):
    expr: Expression


class If(Statement):
    cond: Expression
    then: Block
    els: Optional[Block] = None


class While(Statement):
    cond: Expression
    body: Block
    invariant: Optional[Expression] = None


class Return(Statement):
    value: Optional[Expression] = None


class FunctionDeclStmt(Statement):
    """A nested (closure) function declaration inside a body."""

    decl: "FunctionDecl" = None  # type: ignore[assignment]


class Skip(Statement):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Param(Record):
    name: str
    type: Optional[TypeAnn] = None


class Declaration(Record):
    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)
    #: ``export`` modifier — the declaration is part of the module's interface
    #: (see :mod:`repro.project.summary`).
    exported: bool = field(default=False, kw_only=True)


class ImportDecl(Declaration):
    """``import {a, b} from "./mod";`` — bind another module's exports.

    ``module`` is the literal module specifier; resolution against the
    importing file's directory happens in :mod:`repro.project.graph`.
    """

    names: List[str] = field(default_factory=list)
    module: str = ""


class TypeAliasDecl(Declaration):
    name: str
    params: List[str] = field(default_factory=list)
    body: TypeAnn = None  # type: ignore[assignment]


class EnumDecl(Declaration):
    name: str
    members: List[Tuple[str, int]] = field(default_factory=list)


class SpecDecl(Declaration):
    """``spec name :: <A>(...) => T;`` — one overload signature for ``name``."""

    name: str
    type: TypeAnn = None  # type: ignore[assignment]


class DeclareDecl(Declaration):
    """``declare name :: T;`` — an ambient, trusted binding (e.g. ghost fns)."""

    name: str
    type: TypeAnn = None  # type: ignore[assignment]


class QualifierDecl(Declaration):
    """``qualifier p;`` — an extra predicate template for liquid inference."""

    pred: Expression = None  # type: ignore[assignment]


class FieldDecl(Record):
    name: str
    type: TypeAnn
    immutable: bool = False
    optional: bool = False
    span: SourceSpan = field(default_factory=SourceSpan.unknown)


class MethodSig(Record):
    name: str
    tparams: List[str] = field(default_factory=list)
    params: List[Param] = field(default_factory=list)
    ret: Optional[TypeAnn] = None
    receiver_mutability: Optional[str] = None
    span: SourceSpan = field(default_factory=SourceSpan.unknown)


class MethodDecl(Record):
    sig: MethodSig
    body: Optional[Block] = None
    specs: List[TypeAnn] = field(default_factory=list)


class InterfaceDecl(Declaration):
    name: str
    tparams: List[str] = field(default_factory=list)
    extends: List[str] = field(default_factory=list)
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodSig] = field(default_factory=list)


class ClassDecl(Declaration):
    name: str
    tparams: List[str] = field(default_factory=list)
    extends: Optional[str] = None
    implements: List[str] = field(default_factory=list)
    fields: List[FieldDecl] = field(default_factory=list)
    constructor: Optional[MethodDecl] = None
    methods: List[MethodDecl] = field(default_factory=list)
    invariant: Optional[Expression] = None


class FunctionDecl(Declaration):
    name: str
    tparams: List[str] = field(default_factory=list)
    params: List[Param] = field(default_factory=list)
    ret: Optional[TypeAnn] = None
    body: Optional[Block] = None
    specs: List[TypeAnn] = field(default_factory=list)


class Program(Record):
    declarations: List[Declaration] = field(default_factory=list)
    source_name: str = "<input>"

    def functions(self) -> List[FunctionDecl]:
        return [d for d in self.declarations if isinstance(d, FunctionDecl)]

    def classes(self) -> List[ClassDecl]:
        return [d for d in self.declarations if isinstance(d, ClassDecl)]

    def interfaces(self) -> List[InterfaceDecl]:
        return [d for d in self.declarations if isinstance(d, InterfaceDecl)]

    def imports(self) -> List[ImportDecl]:
        return [d for d in self.declarations if isinstance(d, ImportDecl)]

    def exports(self) -> List[Declaration]:
        return [d for d in self.declarations if d.exported]
