"""Error and diagnostic types shared across the RSC pipeline.

Every stage of the checker (parsing, SSA conversion, well-formedness,
refinement checking, liquid inference) reports problems through the classes
defined here so that callers get a uniform, location-carrying diagnostic
stream instead of ad-hoc exceptions.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional

from repro.node import Record, field

_set_field = object.__setattr__


class SourceSpan(Record, frozen=True):
    """A region of source text: 1-based line/column of start and end."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0
    filename: str = "<input>"

    def __init__(self, line: int = 0, col: int = 0, end_line: int = 0,
                 end_col: int = 0, filename: str = "<input>") -> None:
        _set_field(self, "line", line)
        _set_field(self, "col", col)
        _set_field(self, "end_line", end_line)
        _set_field(self, "end_col", end_col)
        _set_field(self, "filename", filename)

    def __str__(self) -> str:
        if self.line == 0:
            return self.filename
        return f"{self.filename}:{self.line}:{self.col}"

    @staticmethod
    def unknown() -> "SourceSpan":
        return SourceSpan()

    def with_filename(self, filename: str) -> "SourceSpan":
        return SourceSpan(self.line, self.col, self.end_line, self.end_col,
                          filename)

    def to_dict(self) -> dict:
        return {"file": self.filename, "line": self.line, "col": self.col,
                "end_line": self.end_line, "end_col": self.end_col}


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class ErrorKind(Enum):
    """Classification of diagnostics, used by tests and the bench harness."""

    PARSE = "parse"
    RESOLUTION = "resolution"
    WELLFORMED = "wellformedness"
    SUBTYPE = "subtyping"
    MUTABILITY = "mutability"
    OVERLOAD = "overload"
    CAST = "cast"
    BOUNDS = "bounds"
    INITIALIZATION = "initialization"
    MODULE = "module"
    INTERNAL = "internal"


#: Fallback diagnostic code for each :class:`ErrorKind` (used when a call
#: site does not attach a more specific code).
DEFAULT_CODES: Dict[ErrorKind, str] = {
    ErrorKind.PARSE: "RSC-PARSE-001",
    ErrorKind.RESOLUTION: "RSC-RES-001",
    ErrorKind.WELLFORMED: "RSC-WF-001",
    ErrorKind.SUBTYPE: "RSC-SUB-001",
    ErrorKind.MUTABILITY: "RSC-MUT-001",
    ErrorKind.OVERLOAD: "RSC-OVR-001",
    ErrorKind.CAST: "RSC-CAST-001",
    ErrorKind.BOUNDS: "RSC-BND-001",
    ErrorKind.INITIALIZATION: "RSC-INIT-001",
    ErrorKind.MODULE: "RSC-MOD-001",
    ErrorKind.INTERNAL: "RSC-INT-001",
}

#: Stable error-code catalog: code -> (one-line summary, longer explanation).
#: Codes are part of the public API: tools may match on them, so existing
#: codes must never be renumbered (add new ones instead).
ERROR_CATALOG: Dict[str, tuple] = {
    "RSC-PARSE-001": (
        "syntax error",
        "The source file is not well-formed nanoTS and could not be parsed. "
        "The span points at the offending token."),
    "RSC-RES-001": (
        "name resolution failed",
        "A name, member or type could not be resolved in the current scope."),
    "RSC-RES-002": (
        "unbound variable",
        "A variable is used that is neither a parameter, a local, a declared "
        "global nor a known function."),
    "RSC-RES-003": (
        "unknown member",
        "The receiver's type has no field or method with this name."),
    "RSC-RES-004": (
        "unknown class or interface",
        "A `new` expression or type annotation refers to a class that is not "
        "defined (or instantiates an interface)."),
    "RSC-RES-005": (
        "missing signature",
        "A function has no `spec` signature and none could be inferred; its "
        "body is skipped."),
    "RSC-WF-001": (
        "ill-formed type",
        "A type annotation is not well-formed (e.g. a refinement mentions "
        "variables that are not in scope)."),
    "RSC-SUB-001": (
        "subtyping obligation failed",
        "A value flows into a context whose refinement type it cannot be "
        "proven to satisfy."),
    "RSC-SUB-002": (
        "argument does not satisfy parameter type",
        "At a call site, an argument could not be proven to satisfy the "
        "declared (possibly dependent) parameter type."),
    "RSC-SUB-003": (
        "returned expression does not satisfy return type",
        "The value returned by a function body could not be proven to "
        "satisfy the declared return type."),
    "RSC-SUB-004": (
        "initialiser/assignment violates declared type",
        "The right-hand side of a declaration or assignment could not be "
        "proven to satisfy the annotated type."),
    "RSC-SUB-005": (
        "loop or join invariant not preserved",
        "A phi variable at a control-flow join (including loop back-edges) "
        "does not preserve the inferred invariant template."),
    "RSC-MUT-001": (
        "write to immutable field",
        "An `immutable` field may only be assigned inside its class's "
        "constructor."),
    "RSC-MUT-002": (
        "mutation through a non-mutable reference",
        "A field or array element is written through a reference whose "
        "mutability qualifier does not permit writes."),
    "RSC-MUT-003": (
        "receiver mutability violation",
        "A method that requires a mutable (or unique) receiver was invoked "
        "on a reference with weaker mutability."),
    "RSC-OVR-001": (
        "dead-code obligation failed (two-phase overloading)",
        "Under the selected overload this program point must be unreachable, "
        "but the environment could not be proven inconsistent."),
    "RSC-OVR-002": (
        "assertion not provable",
        "The argument of `assert(...)` could not be proven from the current "
        "environment."),
    "RSC-CAST-001": (
        "unsafe downcast",
        "A `<T> e` cast could not be proven safe from the guarding tests on "
        "the value's tag or flag bits."),
    "RSC-BND-001": (
        "array bounds violation",
        "An array index could not be proven to satisfy 0 <= i < len(a)."),
    "RSC-BND-002": (
        "possibly undefined or null access",
        "A member access has a receiver whose type admits undefined/null and "
        "that case could not be ruled out."),
    "RSC-BND-003": (
        "operation on a non-indexable value",
        "An indexing or call operation is applied to a value that is not an "
        "array/function under the current typing."),
    "RSC-INIT-001": (
        "initialization error",
        "A field is read before the constructor has definitely assigned it."),
    "RSC-MOD-001": (
        "unresolved import",
        "An `import ... from \"./mod\"` refers to a module file that does "
        "not exist under the project root (module specifiers are resolved "
        "relative to the importing file, with `.rsc` appended)."),
    "RSC-MOD-002": (
        "import cycle",
        "The module graph contains an import cycle, so no dependency order "
        "exists in which each module could be checked against its "
        "dependencies' interfaces.  Every module on the cycle reports this "
        "diagnostic and is skipped; break the cycle by moving the shared "
        "declarations into a common dependency."),
    "RSC-MOD-003": (
        "unknown export",
        "An import names a binding that the target module does not export. "
        "Only declarations marked with `export` are part of a module's "
        "interface summary."),
    "RSC-INT-001": (
        "internal checker error",
        "The checker hit an unexpected state; please report this as a bug."),
}


#: Every stable diagnostic code, sorted — the public list tools may rely on.
CODES: tuple = tuple(sorted(ERROR_CATALOG))


def explain_code(code: str) -> Optional[tuple]:
    """Catalog entry ``(summary, detail)`` for ``code``, or None."""
    return ERROR_CATALOG.get(code.strip().upper())


class Diagnostic(Record):
    """A single problem discovered by some phase of the checker.

    Every diagnostic carries a stable machine-readable ``code`` (see
    :data:`ERROR_CATALOG`); when a call site does not supply one the family
    default for its :class:`ErrorKind` is used.
    """

    kind: ErrorKind
    message: str
    span: SourceSpan = field(default_factory=SourceSpan.unknown)
    severity: Severity = Severity.ERROR
    code: str = ""

    def __post_init__(self) -> None:
        if not self.code:
            self.code = DEFAULT_CODES[self.kind]

    def __str__(self) -> str:
        return (f"{self.span}: {self.severity.value}: {self.code} "
                f"[{self.kind.value}] {self.message}")

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "kind": self.kind.value,
            "severity": self.severity.value,
            "message": self.message,
            "span": self.span.to_dict(),
        }


class RscError(Exception):
    """Base class for exceptions raised by the RSC implementation."""


class ParseError(RscError):
    """Raised by the lexer/parser on malformed input."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(message)
        self.message = message
        self.span = span or SourceSpan.unknown()

    def __str__(self) -> str:
        return f"{self.span}: parse error: {self.message}"


class SsaError(RscError):
    """Raised when a program cannot be converted to SSA/IRSC form."""


class TypeError_(RscError):
    """Raised for unrecoverable typing problems (most are reported as Diagnostics)."""


class SolverError(RscError):
    """Raised by the SMT substrate on malformed queries."""


class InternalError(RscError):
    """A bug in the checker itself."""


class DiagnosticBag:
    """Accumulates diagnostics produced while checking a program."""

    def __init__(self) -> None:
        self._items: List[Diagnostic] = []

    def add(self, diag: Diagnostic) -> None:
        self._items.append(diag)

    def error(self, kind: ErrorKind, message: str,
              span: Optional[SourceSpan] = None, code: str = "") -> None:
        self.add(Diagnostic(kind, message, span or SourceSpan.unknown(),
                            Severity.ERROR, code))

    def warning(self, kind: ErrorKind, message: str,
                span: Optional[SourceSpan] = None, code: str = "") -> None:
        self.add(Diagnostic(kind, message, span or SourceSpan.unknown(),
                            Severity.WARNING, code))

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            self.add(d)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self._items if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self._items if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return bool(self.errors)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self._items)
