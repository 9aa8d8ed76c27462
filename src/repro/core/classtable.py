"""The class table: global program information used throughout checking.

Collects everything declared at the top level of a program — type aliases,
enums, interfaces, classes, overload specs, ambient ``declare`` bindings,
functions and extra liquid qualifiers — and offers resolved views (class
invariants, field/method lookup including inheritance, the interface
hierarchy used for downcast verification, ...).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import DiagnosticBag, ErrorKind
from repro.lang import ast
from repro.logic import builtins
from repro.logic.terms import Expr, StrLit, conj, substitute
from repro.node import Record, field
from repro.rtypes import Mutability, RType, TFun


class FieldInfo(Record):
    name: str
    type: RType
    immutable: bool
    optional: bool = False


class MethodInfo(Record):
    name: str
    signature: TFun
    receiver_mutability: Mutability
    decl: Optional[ast.MethodDecl] = None


class ClassInfo(Record):
    name: str
    tparams: List[str] = field(default_factory=list)
    extends: Optional[str] = None
    implements: List[str] = field(default_factory=list)
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    constructor: Optional[MethodInfo] = None
    ctor_field_params: Dict[str, str] = field(default_factory=dict)
    is_interface: bool = False
    decl: Optional[ast.Declaration] = None


class ClassTable:
    """Global, name-indexed program information."""

    def __init__(self) -> None:
        self.aliases: Dict[str, Tuple[List[str], ast.TypeAnn]] = {}
        self.enums: Dict[str, Dict[str, int]] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.specs: Dict[str, List[ast.TypeAnn]] = {}
        self.declares: Dict[str, ast.TypeAnn] = {}
        self.functions: Dict[str, ast.FunctionDecl] = {}
        self.qualifiers: List[ast.Expression] = []
        self._invariant_stack: List[str] = []

    # -- construction ----------------------------------------------------------

    @staticmethod
    def from_program(program: ast.Program, diags: DiagnosticBag) -> "ClassTable":
        table = ClassTable()
        for decl in program.declarations:
            if isinstance(decl, ast.TypeAliasDecl):
                if decl.name in table.aliases:
                    diags.error(ErrorKind.RESOLUTION,
                                f"duplicate type alias {decl.name!r}", decl.span)
                table.aliases[decl.name] = (decl.params, decl.body)
            elif isinstance(decl, ast.EnumDecl):
                table.enums[decl.name] = dict(decl.members)
            elif isinstance(decl, ast.SpecDecl):
                table.specs.setdefault(decl.name, []).append(decl.type)
            elif isinstance(decl, ast.DeclareDecl):
                table.declares[decl.name] = decl.type
            elif isinstance(decl, ast.QualifierDecl):
                table.qualifiers.append(decl.pred)
            elif isinstance(decl, ast.FunctionDecl):
                table.functions[decl.name] = decl
            elif isinstance(decl, (ast.ClassDecl, ast.InterfaceDecl)):
                # classes/interfaces are registered now; their member types are
                # resolved later (they may mention aliases defined below them)
                info = ClassInfo(name=decl.name, tparams=list(decl.tparams),
                                 is_interface=isinstance(decl, ast.InterfaceDecl),
                                 decl=decl)
                if isinstance(decl, ast.ClassDecl):
                    info.extends = decl.extends
                    info.implements = list(decl.implements)
                else:
                    info.extends = decl.extends[0] if decl.extends else None
                    info.implements = list(decl.extends[1:])
                table.classes[decl.name] = info
        return table

    # -- hierarchy queries --------------------------------------------------------

    def is_class_like(self, name: str) -> bool:
        return name in self.classes

    def supertypes(self, name: str) -> List[str]:
        """All transitive supertypes (classes and interfaces) of ``name``."""
        seen: List[str] = []
        work = [name]
        while work:
            current = work.pop()
            info = self.classes.get(current)
            if info is None:
                continue
            parents = ([info.extends] if info.extends else []) + list(info.implements)
            for parent in parents:
                if parent and parent not in seen:
                    seen.append(parent)
                    work.append(parent)
        return seen

    def is_subtype_name(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self.supertypes(sub)

    def fields_of(self, name: str) -> Dict[str, FieldInfo]:
        """Fields of ``name`` including inherited ones (subclass wins)."""
        result: Dict[str, FieldInfo] = {}
        chain = [name] + self.supertypes(name)
        for cls in reversed(chain):
            info = self.classes.get(cls)
            if info is not None:
                result.update(info.fields)
        return result

    def methods_of(self, name: str) -> Dict[str, MethodInfo]:
        result: Dict[str, MethodInfo] = {}
        chain = [name] + self.supertypes(name)
        for cls in reversed(chain):
            info = self.classes.get(cls)
            if info is not None:
                result.update(info.methods)
        return result

    def lookup_field(self, class_name: str, field_name: str) -> Optional[FieldInfo]:
        return self.fields_of(class_name).get(field_name)

    def lookup_method(self, class_name: str, method_name: str) -> Optional[MethodInfo]:
        return self.methods_of(class_name).get(method_name)

    # -- invariants -------------------------------------------------------------------

    def shape_facts(self, name: str, term: Expr) -> Expr:
        """Nominal facts: ``instanceof``/``impl`` for the class and supertypes."""
        facts = [builtins.impl_of(term, StrLit(name))]
        if name in self.classes and not self.classes[name].is_interface:
            facts.append(builtins.instanceof_of(term, StrLit(name)))
        for sup in self.supertypes(name):
            facts.append(builtins.impl_of(term, StrLit(sup)))
        return conj(*facts)

    def invariant(self, name: str, term: Expr) -> Expr:
        """The class invariant ``inv(C, term)``: every field refinement with
        ``v`` replaced by ``term.f`` and ``this`` replaced by ``term``, plus
        nominal inclusion facts (section 2.2.3 / 3.2)."""
        if name in self._invariant_stack or len(self._invariant_stack) > 2:
            # Break recursive class references (e.g. linked nodes); nominal
            # facts alone are still sound.
            return self.shape_facts(name, term)
        self._invariant_stack.append(name)
        try:
            parts: List[Expr] = [self.shape_facts(name, term)]
            for fld in self.fields_of(name).values():
                field_term = _field_term(term, fld.name)
                from repro.rtypes.types import embed
                # Substitute the value variable first (v -> term.f), *then* the
                # receiver (this -> term); the other order would also rewrite
                # the receiver occurrences the first substitution introduced.
                fact = embed(fld.type, field_term, include_shape=False)
                parts.append(substitute(fact, {"this": term}))
            return conj(*parts)
        finally:
            self._invariant_stack.pop()


def _field_term(obj: Expr, field_name: str) -> Expr:
    from repro.logic.terms import Field
    return Field(obj, field_name)
