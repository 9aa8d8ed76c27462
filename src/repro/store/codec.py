"""Serialisation of store artifacts: exact, versioned, paranoid.

Three artifact kinds cross process boundaries (see :mod:`repro.store`):

* **verdict memos** — ``(formula, Result)`` pairs that re-seed
  :class:`repro.smt.solver.Solver`'s query cache;
* **kappa solutions** — the liquid fixpoint a finished check produced,
  replayed as the warm-start seed :meth:`LiquidSolver.solve` accepts;
* **module artifacts** — a module's parse outcome: interface summary,
  raw import declarations and parse diagnostics.

Formulas are stored as one **node table per entry**: every distinct
(hash-consed) term the entry holds is one row, written in post-order, so a
term shared by many verdict memos or qualifiers is written — and decoded —
once.  A row is a tagged JSON array, one tag per :mod:`repro.logic.terms`
node::

    ["v", name, sort]           ["i", int]    ["b", bool]    ["s", str]
    ["a", fn, [arg, ...], sort] ["f", target, name, sort]
    ["o", op, left, right, sort]
    ["u", op, operand, sort]    ["t", cond, then, els, sort]

where every child (``arg``, ``target``, ``left`` ...) is the integer index
of an earlier row.  A verdicts entry is ``{"nodes": rows, "pairs":
[[row, "sat"|"unsat"], ...]}``; a solutions entry is ``{"nodes": rows,
"kappas": {kappa: [row, ...]}}``.  The encoder is an iterative walk keyed on
the interned term (no depth limit); the decoder is one forward loop that
builds each row's term once, through the interning constructors, so it
decodes back to the *identical* frozen term values (same object, same
hash) — that exactness is what lets a decoded memo hit the solver cache and
a decoded solution replay to a byte-identical verdict.

**The reference rule.**  A reference must be an ``int`` (not a ``bool``)
with ``0 <= ref < k`` inside row ``k``, and ``0 <= ref < len(rows)`` in a
pair or a qualifier list.  That makes cycles, forward references and
out-of-range roots unwritable.  Module artifacts hold no terms and are plain
JSON objects.

Every persisted entry is wrapped in an envelope carrying
:data:`STORE_SCHEMA`; decoding anything malformed — truncated payloads,
garbage bytes, entries written by a different schema version, unknown tags
or result values, bad references — raises :class:`CodecError`, which the
store treats as a cache miss (recompute, never crash, never a wrong verdict).
"""

from __future__ import annotations

import json
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
    children,
)
from repro.node import Record, field
from repro.smt.solver import Result

if TYPE_CHECKING:  # imported lazily at runtime to keep the store package
    # independent of repro.project (which imports the workspace, which
    # imports the store — a cycle if this were a module-level import).
    from repro.project.summary import ModuleSummary

#: Version stamp of every on-disk entry.  Bump whenever the encoding of any
#: artifact kind changes shape or meaning; old entries then decode as misses
#: and are recomputed (and overwritten) instead of being misread.  The stamp
#: is also folded into ``config_fingerprint``, so the document keys move with
#: it.  Schema 2: verdicts and solutions as one node table per entry
#: (schema 1 wrote one JSON tree per term).
STORE_SCHEMA = 2


class CodecError(ValueError):
    """A store entry that cannot be decoded (treated as a cache miss)."""


# ---------------------------------------------------------------------------
# formulas: the node table
# ---------------------------------------------------------------------------


def _row(expr: Expr, index: Dict[Expr, int]) -> list:
    """One node as a table row; its children are already in ``index``."""
    if isinstance(expr, Var):
        return ["v", expr.name, expr.sort.name]
    if isinstance(expr, IntLit):
        return ["i", expr.value]
    if isinstance(expr, BoolLit):
        return ["b", expr.value]
    if isinstance(expr, StrLit):
        return ["s", expr.value]
    if isinstance(expr, App):
        return ["a", expr.fn, [index[arg] for arg in expr.args],
                expr.sort.name]
    if isinstance(expr, Field):
        return ["f", index[expr.target], expr.name, expr.sort.name]
    if isinstance(expr, BinOp):
        return ["o", expr.op, index[expr.left], index[expr.right],
                expr.sort.name]
    if isinstance(expr, UnOp):
        return ["u", expr.op, index[expr.operand], expr.sort.name]
    if isinstance(expr, Ite):
        return ["t", index[expr.cond], index[expr.then], index[expr.els],
                expr.sort.name]
    raise CodecError(f"cannot encode expression node {type(expr).__name__}")


class NodeTable:
    """The encoder's side of one entry: every distinct term it holds, once.

    Terms are hash-consed, so the index is keyed on the interned term
    itself (an O(1) hash and an identity comparison per probe)."""

    def __init__(self) -> None:
        self.rows: list = []
        self._index: Dict[Expr, int] = {}

    def add(self, root: Expr) -> int:
        """The row of ``root``, appending every node of it not yet in the
        table in post-order (an explicit stack: no depth limit)."""
        index = self._index
        stack = [(root, False)]
        while stack:
            expr, expanded = stack.pop()
            if expr in index:
                continue
            if expanded:
                index[expr] = len(self.rows)
                self.rows.append(_row(expr, index))
                continue
            stack.append((expr, True))
            stack.extend((child, False)
                         for child in reversed(children(expr))
                         if child not in index)
        return index[root]


def _sort(name) -> Sort:
    if not isinstance(name, str):
        raise CodecError(f"sort name must be a string, got {name!r}")
    return sort_named(name)


def _ref(nodes: List[Expr], ref) -> Expr:
    """The node ``ref`` names: an ``int`` (not a ``bool``) below the current
    row — which is what makes cycles and forward references unwritable."""
    if type(ref) is not int or not 0 <= ref < len(nodes):
        raise CodecError(f"bad node reference {ref!r} "
                         f"(table has {len(nodes)} rows so far)")
    return nodes[ref]


def decode_table(rows) -> List[Expr]:
    """Build every row's term once, in order; :class:`CodecError` on garbage.

    Row ``k`` may only reference rows ``0 .. k-1``, so ``nodes`` holds
    exactly the rows a reference may name when it is resolved."""
    if not isinstance(rows, list):
        raise CodecError("node table must be a list")
    nodes: List[Expr] = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise CodecError(f"node row {len(nodes)} must be a tagged "
                             f"array, got {row!r}")
        tag = row[0]
        try:
            if tag == "v":
                _, name, sort = row
                if not isinstance(name, str):
                    raise CodecError("Var name must be a string")
                expr = Var(name, _sort(sort))
            elif tag == "i":
                _, value = row
                # bool is an int subclass; IntLit(True) would not round-trip.
                if type(value) is not int:
                    raise CodecError("IntLit value must be an integer")
                expr = IntLit(value)
            elif tag == "b":
                _, value = row
                if not isinstance(value, bool):
                    raise CodecError("BoolLit value must be a boolean")
                expr = BoolLit(value)
            elif tag == "s":
                _, value = row
                if not isinstance(value, str):
                    raise CodecError("StrLit value must be a string")
                expr = StrLit(value)
            elif tag == "a":
                _, fn, args, sort = row
                if not isinstance(fn, str) or not isinstance(args, list):
                    raise CodecError("App needs a function name and an "
                                     "argument list")
                expr = App(fn, tuple(_ref(nodes, arg) for arg in args),
                           _sort(sort))
            elif tag == "f":
                _, target, name, sort = row
                if not isinstance(name, str):
                    raise CodecError("Field name must be a string")
                expr = Field(_ref(nodes, target), name, _sort(sort))
            elif tag == "o":
                _, op, left, right, sort = row
                if not isinstance(op, str):
                    raise CodecError("BinOp operator must be a string")
                expr = BinOp(op, _ref(nodes, left), _ref(nodes, right),
                             _sort(sort))
            elif tag == "u":
                _, op, operand, sort = row
                if not isinstance(op, str):
                    raise CodecError("UnOp operator must be a string")
                expr = UnOp(op, _ref(nodes, operand), _sort(sort))
            elif tag == "t":
                _, cond, then, els, sort = row
                expr = Ite(_ref(nodes, cond), _ref(nodes, then),
                           _ref(nodes, els), _sort(sort))
            else:
                raise CodecError(f"unknown expression tag {tag!r}")
        except CodecError:
            raise
        except ValueError as exc:
            # Arity mismatches surface as unpacking ValueErrors.
            raise CodecError(f"malformed {tag!r} row: {exc}") from exc
        nodes.append(expr)
    return nodes


def encode_expr(expr: Expr) -> list:
    """One term as its own node table (the root is the last row)."""
    table = NodeTable()
    table.add(expr)
    return table.rows


def decode_expr(obj) -> Expr:
    """The inverse of :func:`encode_expr`; :class:`CodecError` on garbage."""
    nodes = decode_table(obj)
    if not nodes:
        raise CodecError("empty node table has no root")
    return nodes[-1]


# ---------------------------------------------------------------------------
# verdict memos and kappa solutions
# ---------------------------------------------------------------------------


def encode_verdicts(pairs: Iterable[Tuple[Expr, Result]]) -> dict:
    table = NodeTable()
    encoded = [[table.add(formula), result.value] for formula, result in pairs]
    return {"nodes": table.rows, "pairs": encoded}


def decode_verdicts(obj) -> List[Tuple[Expr, Result]]:
    if not isinstance(obj, dict):
        raise CodecError("verdict memos must be an object")
    nodes = decode_table(obj.get("nodes"))
    raw_pairs = obj.get("pairs")
    if not isinstance(raw_pairs, list):
        raise CodecError("verdict pairs must be a list")
    pairs: List[Tuple[Expr, Result]] = []
    for item in raw_pairs:
        if not isinstance(item, list) or len(item) != 2:
            raise CodecError(f"verdict memo must be a pair, got {item!r}")
        ref, value = item
        try:
            result = Result(value)
        except ValueError as exc:
            raise CodecError(f"unknown verdict {value!r}") from exc
        formula = _ref(nodes, ref)
        if result is not Result.UNKNOWN:  # a give-up is never replayed
            pairs.append((formula, result))
    return pairs


def encode_solution(solution: Dict[str, List[Expr]]) -> dict:
    table = NodeTable()
    kappas = {kappa: [table.add(q) for q in quals]
              for kappa, quals in solution.items()}
    return {"nodes": table.rows, "kappas": kappas}


def decode_solution(obj) -> Dict[str, List[Expr]]:
    if not isinstance(obj, dict):
        raise CodecError("kappa solution must be an object")
    nodes = decode_table(obj.get("nodes"))
    kappas = obj.get("kappas")
    if not isinstance(kappas, dict):
        raise CodecError("kappa solution needs a kappa object")
    solution: Dict[str, List[Expr]] = {}
    for kappa, refs in kappas.items():
        if not isinstance(kappa, str) or not isinstance(refs, list):
            raise CodecError(f"malformed solution entry for {kappa!r}")
        solution[kappa] = [_ref(nodes, ref) for ref in refs]
    return solution


# ---------------------------------------------------------------------------
# module artifacts
# ---------------------------------------------------------------------------


class ModuleArtifact(Record):
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
