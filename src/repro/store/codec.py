"""Serialisation of store artifacts: exact, versioned, paranoid.

Three artifact kinds cross process boundaries (see :mod:`repro.store`):

* **verdict memos** — ``(formula, Result)`` pairs that re-seed
  :class:`repro.smt.solver.Solver`'s query cache;
* **kappa solutions** — the liquid fixpoint a finished check produced,
  replayed as the warm-start seed :meth:`LiquidSolver.solve` accepts;
* **module artifacts** — a module's parse outcome: interface summary,
  raw import declarations and parse diagnostics.

Formulas are encoded as tagged JSON arrays, one tag per
:mod:`repro.logic.terms` node, and decode back to the *identical* frozen
dataclass values (same hash, same equality) — that exactness is what lets a
decoded memo hit the solver cache and a decoded solution replay to a
byte-identical verdict.

Every persisted entry is wrapped in an envelope carrying
:data:`STORE_SCHEMA`; decoding anything malformed — truncated payloads,
garbage bytes, entries written by a different schema version, unknown tags
or result values — raises :class:`CodecError`, which the store treats as a
cache miss (recompute, never crash, never a wrong verdict).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.errors import Diagnostic, ErrorKind, Severity, SourceSpan
from repro.logic.sorts import Sort, sort_named
from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    Field,
    IntLit,
    Ite,
    StrLit,
    UnOp,
    Var,
)
from repro.smt.solver import Result

if TYPE_CHECKING:  # imported lazily at runtime to keep the store package
    # independent of repro.project (which imports the workspace, which
    # imports the store — a cycle if this were a module-level import).
    from repro.project.summary import ModuleSummary

#: Version stamp of every on-disk entry.  Bump whenever the encoding of any
#: artifact kind changes shape or meaning; old entries then decode as misses
#: and are recomputed (and overwritten) instead of being misread.
STORE_SCHEMA = 1


class CodecError(ValueError):
    """A store entry that cannot be decoded (treated as a cache miss)."""


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def encode_expr(expr: Expr) -> list:
    """One logic term as a tagged JSON array (exact round trip)."""
    if isinstance(expr, Var):
        return ["v", expr.name, expr.sort.name]
    if isinstance(expr, IntLit):
        return ["i", expr.value]
    if isinstance(expr, BoolLit):
        return ["b", expr.value]
    if isinstance(expr, StrLit):
        return ["s", expr.value]
    if isinstance(expr, App):
        return ["a", expr.fn, [encode_expr(arg) for arg in expr.args],
                expr.sort.name]
    if isinstance(expr, Field):
        return ["f", encode_expr(expr.target), expr.name, expr.sort.name]
    if isinstance(expr, BinOp):
        return ["o", expr.op, encode_expr(expr.left),
                encode_expr(expr.right), expr.sort.name]
    if isinstance(expr, UnOp):
        return ["u", expr.op, encode_expr(expr.operand), expr.sort.name]
    if isinstance(expr, Ite):
        return ["t", encode_expr(expr.cond), encode_expr(expr.then),
                encode_expr(expr.els), expr.sort.name]
    raise CodecError(f"cannot encode expression node {type(expr).__name__}")


def _sort(name) -> Sort:
    if not isinstance(name, str):
        raise CodecError(f"sort name must be a string, got {name!r}")
    return sort_named(name)


def decode_expr(obj) -> Expr:
    """The inverse of :func:`encode_expr`; :class:`CodecError` on garbage."""
    if not isinstance(obj, list) or not obj:
        raise CodecError(f"expression must be a tagged array, got {obj!r}")
    tag = obj[0]
    try:
        if tag == "v":
            _, name, sort = obj
            if not isinstance(name, str):
                raise CodecError("Var name must be a string")
            return Var(name, _sort(sort))
        if tag == "i":
            _, value = obj
            # bool is an int subclass; an IntLit(True) would not round-trip.
            if not isinstance(value, int) or isinstance(value, bool):
                raise CodecError("IntLit value must be an integer")
            return IntLit(value)
        if tag == "b":
            _, value = obj
            if not isinstance(value, bool):
                raise CodecError("BoolLit value must be a boolean")
            return BoolLit(value)
        if tag == "s":
            _, value = obj
            if not isinstance(value, str):
                raise CodecError("StrLit value must be a string")
            return StrLit(value)
        if tag == "a":
            _, fn, args, sort = obj
            if not isinstance(fn, str) or not isinstance(args, list):
                raise CodecError("App needs a function name and an arg list")
            return App(fn, tuple(decode_expr(arg) for arg in args),
                       _sort(sort))
        if tag == "f":
            _, target, name, sort = obj
            if not isinstance(name, str):
                raise CodecError("Field name must be a string")
            return Field(decode_expr(target), name, _sort(sort))
        if tag == "o":
            _, op, left, right, sort = obj
            if not isinstance(op, str):
                raise CodecError("BinOp operator must be a string")
            return BinOp(op, decode_expr(left), decode_expr(right),
                         _sort(sort))
        if tag == "u":
            _, op, operand, sort = obj
            if not isinstance(op, str):
                raise CodecError("UnOp operator must be a string")
            return UnOp(op, decode_expr(operand), _sort(sort))
        if tag == "t":
            _, cond, then, els, sort = obj
            return Ite(decode_expr(cond), decode_expr(then),
                       decode_expr(els), _sort(sort))
    except ValueError as exc:
        # Arity mismatches surface as unpacking ValueErrors.
        raise CodecError(f"malformed {tag!r} node: {exc}") from exc
    raise CodecError(f"unknown expression tag {tag!r}")


# ---------------------------------------------------------------------------
# verdict memos and kappa solutions
# ---------------------------------------------------------------------------


def encode_verdicts(pairs: Iterable[Tuple[Expr, Result]]) -> list:
    return [[encode_expr(formula), result.value] for formula, result in pairs]


def decode_verdicts(obj) -> List[Tuple[Expr, Result]]:
    if not isinstance(obj, list):
        raise CodecError("verdict memos must be a list")
    pairs: List[Tuple[Expr, Result]] = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise CodecError(f"verdict memo must be a pair, got {item!r}")
        encoded, value = item
        try:
            result = Result(value)
        except ValueError as exc:
            raise CodecError(f"unknown verdict {value!r}") from exc
        if result is not Result.UNKNOWN:  # older stores hold give-ups
            pairs.append((decode_expr(encoded), result))
    return pairs


def encode_solution(solution: Dict[str, List[Expr]]) -> dict:
    return {kappa: [encode_expr(q) for q in quals]
            for kappa, quals in solution.items()}


def decode_solution(obj) -> Dict[str, List[Expr]]:
    if not isinstance(obj, dict):
        raise CodecError("kappa solution must be an object")
    solution: Dict[str, List[Expr]] = {}
    for kappa, quals in obj.items():
        if not isinstance(kappa, str) or not isinstance(quals, list):
            raise CodecError(f"malformed solution entry for {kappa!r}")
        solution[kappa] = [decode_expr(q) for q in quals]
    return solution


# ---------------------------------------------------------------------------
# module artifacts
# ---------------------------------------------------------------------------


@dataclass
class ModuleArtifact:
    """A module's parse outcome, sufficient to rebuild its graph node.

    ``imports`` holds the *raw* import declarations ``(names, specifier,
    span)`` — resolution against the module set is recomputed per graph
    (it depends on which sibling files exist, not on this module alone).
    """

    parses: bool
    summary: "ModuleSummary"
    imports: List[Tuple[List[str], str, SourceSpan]] = field(
        default_factory=list)
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)


def _encode_span(span: SourceSpan) -> list:
    return [span.line, span.col, span.end_line, span.end_col, span.filename]


def _decode_span(obj) -> SourceSpan:
    if (not isinstance(obj, list) or len(obj) != 5
            or not all(isinstance(n, int) for n in obj[:4])
            or not isinstance(obj[4], str)):
        raise CodecError(f"malformed source span {obj!r}")
    return SourceSpan(obj[0], obj[1], obj[2], obj[3], obj[4])


def _encode_diagnostic(diag: Diagnostic) -> dict:
    return {"kind": diag.kind.value, "message": diag.message,
            "span": _encode_span(diag.span),
            "severity": diag.severity.value, "code": diag.code}


def _decode_diagnostic(obj) -> Diagnostic:
    if not isinstance(obj, dict):
        raise CodecError("diagnostic must be an object")
    try:
        kind = ErrorKind(obj["kind"])
        severity = Severity(obj["severity"])
        message = obj["message"]
        code = obj["code"]
    except (KeyError, ValueError) as exc:
        raise CodecError(f"malformed diagnostic: {exc}") from exc
    if not isinstance(message, str) or not isinstance(code, str):
        raise CodecError("diagnostic message/code must be strings")
    return Diagnostic(kind, message, _decode_span(obj["span"]),
                      severity, code)


def encode_module(artifact: ModuleArtifact) -> dict:
    summary = artifact.summary
    return {
        "parses": artifact.parses,
        "summary": {
            "path": summary.path,
            # A pair-list, not an object: the envelope serialiser sorts
            # object keys, and export order is declaration order — it must
            # survive the round trip byte-exactly (the interface prelude,
            # and with it every dependent's store key, is rendered from it).
            "exports": [[name, list(decls)]
                        for name, decls in summary.exports.items()],
            "qualifiers": list(summary.qualifiers),
            "fingerprint": summary.fingerprint,
        },
        "imports": [[list(names), specifier, _encode_span(span)]
                    for names, specifier, span in artifact.imports],
        "parse_diagnostics": [_encode_diagnostic(d)
                              for d in artifact.parse_diagnostics],
    }


def decode_module(obj) -> ModuleArtifact:
    from repro.project.summary import ModuleSummary
    if not isinstance(obj, dict):
        raise CodecError("module artifact must be an object")
    try:
        parses = obj["parses"]
        raw_summary = obj["summary"]
        raw_imports = obj["imports"]
        raw_diags = obj["parse_diagnostics"]
        path = raw_summary["path"]
        exports = raw_summary["exports"]
        qualifiers = raw_summary["qualifiers"]
        fingerprint = raw_summary["fingerprint"]
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed module artifact: {exc}") from exc
    if (not isinstance(parses, bool) or not isinstance(path, str)
            or not isinstance(exports, list)
            or not isinstance(qualifiers, list)
            or not isinstance(fingerprint, str)
            or not isinstance(raw_imports, list)
            or not isinstance(raw_diags, list)):
        raise CodecError("malformed module artifact")
    decoded_exports: Dict[str, List[str]] = {}
    for entry in exports:
        if not isinstance(entry, list) or len(entry) != 2:
            raise CodecError(f"malformed export entry {entry!r}")
        name, decls = entry
        if (not isinstance(name, str) or not isinstance(decls, list)
                or not all(isinstance(d, str) for d in decls)):
            raise CodecError(f"malformed export entry {name!r}")
        decoded_exports[name] = list(decls)
    if not all(isinstance(q, str) for q in qualifiers):
        raise CodecError("malformed qualifier list")
    summary = ModuleSummary(
        path=path, exports=decoded_exports,
        qualifiers=list(qualifiers), fingerprint=fingerprint)
    imports: List[Tuple[List[str], str, SourceSpan]] = []
    for item in raw_imports:
        if not isinstance(item, list) or len(item) != 3:
            raise CodecError(f"malformed import entry {item!r}")
        names, specifier, span = item
        if (not isinstance(names, list)
                or not all(isinstance(n, str) for n in names)
                or not isinstance(specifier, str)):
            raise CodecError(f"malformed import entry {item!r}")
        imports.append((list(names), specifier, _decode_span(span)))
    return ModuleArtifact(
        parses=parses, summary=summary, imports=imports,
        parse_diagnostics=[_decode_diagnostic(d) for d in raw_diags])


# ---------------------------------------------------------------------------
# the entry envelope
# ---------------------------------------------------------------------------

_ENCODERS = {
    "verdicts": encode_verdicts,
    "solutions": encode_solution,
    "modules": encode_module,
}

_DECODERS = {
    "verdicts": decode_verdicts,
    "solutions": decode_solution,
    "modules": decode_module,
}


def encode_entry(kind: str, data) -> bytes:
    """Wrap one artifact in the versioned envelope, serialised to bytes."""
    payload = {"schema": STORE_SCHEMA, "kind": kind, "data":
               _ENCODERS[kind](data)}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_entry(kind: str, payload: bytes):
    """Unwrap and decode one entry; :class:`CodecError` on anything off.

    The catch-all below is deliberate: a store entry is untrusted input
    (another process, another version, a partial write), and *any* failure
    to decode it must read as a miss, never as an exception escaping into
    the checking pipeline.
    """
    try:
        obj = json.loads(payload.decode("utf-8"))
        if not isinstance(obj, dict):
            raise CodecError("entry must be a JSON object")
        if obj.get("schema") != STORE_SCHEMA:
            raise CodecError(f"schema mismatch: {obj.get('schema')!r} "
                             f"(expected {STORE_SCHEMA})")
        if obj.get("kind") != kind:
            raise CodecError(f"kind mismatch: {obj.get('kind')!r} "
                             f"(expected {kind!r})")
        return _DECODERS[kind](obj.get("data"))
    except CodecError:
        raise
    except Exception as exc:  # noqa: BLE001 — untrusted bytes, see above
        raise CodecError(f"malformed {kind} entry: "
                         f"{type(exc).__name__}: {exc}") from exc
