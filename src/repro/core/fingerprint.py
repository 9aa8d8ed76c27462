"""Span-insensitive fingerprints of AST declarations.

The incremental workspace (:mod:`repro.core.workspace`) decides which
declarations an edit actually changed by comparing *fingerprints* of the
parsed AST rather than source text: moving a declaration up or down a file
(or editing a comment above it) shifts every span but leaves the program
unchanged, and must not invalidate cached solve work.

Two fingerprints are computed per document:

* :func:`unit_fingerprints` — one fingerprint per *checkable unit* (a
  top-level function, a class method, a class constructor), covering the
  unit's full AST including its body.  A unit whose fingerprint is unchanged
  between two versions of a document generates byte-identical constraints
  (constraint generation is deterministic), so its kappa solutions and
  concrete-obligation verdicts can be reused.
* :func:`signature_fingerprint` — everything *other* code can observe: type
  aliases, enums, specs, ambient declares, qualifier declarations,
  interfaces, class shapes (fields, method signatures, invariants), function
  signatures, and the ordered list of declaration names.  Constructor bodies
  are deliberately included — ``this.f = p`` assignments feed
  ``ctor_field_params``, which other declarations' ``new`` expressions
  consume.  If this fingerprint changes, the environment any unit was
  checked under may have changed, and the workspace falls back to a cold
  solve.

Fingerprints are hex digests of a canonical dump of the record tree with
every ``span`` field (and every :class:`repro.errors.SourceSpan` value)
skipped.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.errors import SourceSpan
from repro.lang import ast
from repro.node import Record, fields


def _dump(node: object, out: List[str]) -> None:
    """Append a canonical, span-free rendering of ``node`` to ``out``."""
    if isinstance(node, SourceSpan):
        return
    if isinstance(node, Record):
        out.append(type(node).__name__)
        out.append("(")
        for fld in fields(node):
            if fld.name == "span":
                continue
            out.append(fld.name)
            out.append("=")
            _dump(getattr(node, fld.name), out)
            out.append(",")
        out.append(")")
        return
    if isinstance(node, (list, tuple)):
        out.append("[")
        for item in node:
            _dump(item, out)
            out.append(",")
        out.append("]")
        return
    if isinstance(node, dict):
        out.append("{")
        for key in node:  # insertion order is part of the program
            out.append(repr(key))
            out.append(":")
            _dump(node[key], out)
            out.append(",")
        out.append("}")
        return
    out.append(repr(node))


def fingerprint(node: object) -> str:
    """Hex digest of the span-insensitive canonical dump of ``node``."""
    out: List[str] = []
    _dump(node, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


def owner_of_function(decl: ast.FunctionDecl) -> str:
    return decl.name


def owner_of_method(class_name: str, method_name: str) -> str:
    return f"{class_name}.{method_name}"


def unit_fingerprints(program: ast.Program) -> Dict[str, str]:
    """Fingerprint per constraint partition, keyed by its owner name.

    Owner names match the ones the checker stamps onto constraints and
    kappas: ``f`` for a top-level function, ``Cls.m`` for a method and
    ``Cls.constructor`` for a constructor.  Duplicate declarations sharing a
    name are checked under the *same* owner, so their fingerprints are
    combined in order — editing any one of them must dirty the partition
    (keying by name alone would let the last duplicate shadow edits to the
    others and leak stale verdicts through the warm-start gate).
    """
    units: Dict[str, List[str]] = {}
    for decl in program.declarations:
        if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
            units.setdefault(owner_of_function(decl), []).append(
                fingerprint(decl))
        elif isinstance(decl, ast.ClassDecl):
            # Methods see the class shape (fields, tparams, invariant), so a
            # method unit covers the method plus that shared context; the
            # shared context itself is also in the signature fingerprint,
            # which gates warm starts entirely.
            if decl.constructor is not None and decl.constructor.body is not None:
                units.setdefault(
                    owner_of_method(decl.name, "constructor"), []).append(
                        fingerprint(decl.constructor))
            for method in decl.methods:
                if method.body is None:
                    continue
                units.setdefault(
                    owner_of_method(decl.name, method.sig.name), []).append(
                        fingerprint(method))
    return {owner: fps[0] if len(fps) == 1
            else hashlib.sha256("".join(fps).encode()).hexdigest()
            for owner, fps in units.items()}


def signature_fingerprint(program: ast.Program) -> str:
    """Fingerprint of everything observable across declaration boundaries."""
    out: List[str] = []
    for decl in program.declarations:
        if isinstance(decl, ast.FunctionDecl):
            out.append("function(")
            for part in (decl.name, decl.tparams, decl.params, decl.ret,
                         decl.specs, decl.body is None):
                _dump(part, out)
                out.append(",")
            out.append(")")
        elif isinstance(decl, ast.ClassDecl):
            out.append("class(")
            for part in (decl.name, decl.tparams, decl.extends,
                         decl.implements, decl.fields, decl.invariant,
                         decl.constructor):
                _dump(part, out)
                out.append(",")
            for method in decl.methods:
                _dump(method.sig, out)
                _dump(method.specs, out)
                _dump(method.body is None, out)
                out.append(",")
            out.append(")")
        else:
            # aliases, enums, specs, declares, qualifiers, interfaces: the
            # whole declaration is signature.
            _dump(decl, out)
        out.append(";")
    return hashlib.sha256("".join(out).encode()).hexdigest()
