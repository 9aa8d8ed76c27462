"""Per-module interface summaries.

A :class:`ModuleSummary` is the *externally observable* face of one module:
for every ``export``-marked declaration, a body-less rendering of its
signature as nanoTS source.  Checking an importing module injects the
rendered declarations (an *interface prelude*) into its document, so the
module is verified against its dependencies' refinement-typed interfaces —
never their bodies.  This is the modular-verification cut of the project
subsystem:

* exported **functions** contribute their ``spec`` overloads (refinement
  types) plus a body-less ``function`` head, which the importer's resolver
  turns into the same :class:`repro.rtypes.types.TFun`/``TInter`` the
  defining module was checked under;
* exported **classes** contribute their shape — fields, invariant, method
  *signatures* (bodies stripped) — plus the constructor *including its
  body*: ``this.f = p`` assignments feed ``ctor_field_params``, which
  importing modules' ``new`` expressions consume, so the constructor body is
  interface, exactly as :mod:`repro.core.fingerprint` already classifies it;
* exported **type aliases, enums, interfaces and ambient declares** are
  interface wholesale;
* exported **qualifiers** ride along with *every* import from the module
  (they are unnamed predicate templates that seed liquid inference).

Importing any name injects the module's *entire* interface
(:meth:`ModuleSummary.interface_decls`): exported signatures may reference
sibling exports, and injecting only the requested names would silently drop
their refinement obligations in the importer.  The import name list is
still validated against the export set (``RSC-MOD-003``).

The summary's :attr:`~ModuleSummary.fingerprint` hashes the full rendered
interface.  The incremental project workspace re-checks a module's
dependents only when this fingerprint moved — a body-only edit leaves it
unchanged and stops at the module boundary.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.lang import ast
from repro.lang.printer import render_decl
from repro.node import Record, field, replace


def _strip(decl: ast.Declaration) -> ast.Declaration:
    """A copy of ``decl`` reduced to its interface (bodies dropped)."""
    if isinstance(decl, ast.FunctionDecl):
        return replace(decl, body=None, exported=False)
    if isinstance(decl, ast.ClassDecl):
        methods = [ast.MethodDecl(sig=m.sig, body=None, specs=list(m.specs))
                   for m in decl.methods]
        return replace(decl, methods=methods, exported=False)
    return replace(decl, exported=False)


class ModuleSummary(Record):
    """The rendered interface of one module, keyed by exported name."""

    path: str
    #: exported name -> rendered interface declarations for that name
    exports: Dict[str, List[str]] = field(default_factory=dict)
    #: rendered ``qualifier`` declarations, injected with any import
    qualifiers: List[str] = field(default_factory=list)
    #: hex digest of the full rendered interface
    fingerprint: str = ""

    def has(self, name: str) -> bool:
        return name in self.exports

    @property
    def names(self) -> List[str]:
        return sorted(self.exports)

    def interface_decls(self) -> List[str]:
        """Every rendered interface declaration, in declaration order.

        Importing *anything* from a module injects its whole interface:
        an exported signature may reference sibling exported types (a spec
        over an exported alias, a class extending an exported class), and
        injecting only the requested names would silently drop those
        refinement obligations in the importer.  The import name list
        still governs RSC-MOD-003 (unknown export) checking.
        """
        decls: List[str] = []
        for name in self.exports:
            decls.extend(self.exports[name])
        decls.extend(self.qualifiers)
        return decls


def summarize_program(path: str,
                      program: Optional[ast.Program]) -> ModuleSummary:
    """Build the interface summary of a parsed module.

    A module that failed to parse (``program is None``) summarises to an
    empty interface under a sentinel fingerprint distinct from every real
    interface's.  All unparsable states of a module share it — sound,
    because they also share the identical (empty) interface — and the
    fingerprint moves as soon as the module parses again, re-checking
    dependents.
    """
    summary = ModuleSummary(path=path)
    if program is None:
        summary.fingerprint = "unparsed:" + hashlib.sha256(
            path.encode()).hexdigest()
        return summary
    specs_by_name: Dict[str, List[ast.SpecDecl]] = {}
    for decl in program.declarations:
        if isinstance(decl, ast.SpecDecl):
            specs_by_name.setdefault(decl.name, []).append(decl)
    exported_specs: Dict[str, bool] = {}
    for decl in program.declarations:
        if not decl.exported:
            continue
        if isinstance(decl, ast.QualifierDecl):
            summary.qualifiers.append(render_decl(_strip(decl)))
            continue
        name = getattr(decl, "name", None)
        if name is None:
            continue
        entry = summary.exports.setdefault(name, [])
        if isinstance(decl, ast.FunctionDecl):
            # A function's interface is its spec overloads plus a body-less
            # head; specs of an exported function are exported with it.
            if not exported_specs.get(name):
                entry.extend(render_decl(_strip(s))
                             for s in specs_by_name.get(name, []))
                exported_specs[name] = True
            entry.append(render_decl(_strip(decl)))
        elif isinstance(decl, ast.SpecDecl):
            if exported_specs.get(name):
                continue
            exported_specs[name] = True
            entry.extend(render_decl(_strip(s))
                         for s in specs_by_name.get(name, []))
            # `export spec f` without an exported body still makes f
            # callable from importers: emit a body-less head unless the
            # function declaration is exported itself (it then adds one).
            fn = next((d for d in program.declarations
                       if isinstance(d, ast.FunctionDecl) and d.name == name),
                      None)
            if fn is None:
                entry.append(render_decl(ast.FunctionDecl(name=name)))
            elif not fn.exported:
                entry.append(render_decl(_strip(fn)))
        else:
            entry.append(render_decl(_strip(decl)))
    digest = hashlib.sha256()
    for name in sorted(summary.exports):
        digest.update(name.encode())
        for rendered in summary.exports[name]:
            digest.update(rendered.encode())
    for rendered in summary.qualifiers:
        digest.update(rendered.encode())
    summary.fingerprint = digest.hexdigest()
    return summary
