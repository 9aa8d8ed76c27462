"""The typed serve protocol: params/payload codecs and the method registry.

The service speaks one protocol, ``repro-serve/3``, over both transports
(stdio and TCP).  Every method is declared **once**, in :data:`METHODS` —
a registry of :class:`repro.wire.MethodSpec` entries binding the method
name to its params record and its result payload record.  The
envelopes and the registry helpers (:func:`repro.wire.spec_for`,
:func:`repro.wire.decode_request`, ...) live in :mod:`repro.wire`.  Both
server loops, the synchronous client and the ``hello`` method all consult
the same registry, so a method cannot exist half-way: adding one here is
what adds it everywhere.

An optional ``tenant`` envelope field routes a request to one of many
isolated workspaces behind one server (``"default"`` when omitted).

Codecs are **unknown-field tolerant** in both directions: decoding ignores
JSON keys it does not know (so a newer client can talk to a server that
predates a field) and encoding emits only the fields a record declares.
Type errors, by contrast, are strict and produce ``bad-params`` errors
(``"params.uri must be a string"``).

Wire shapes (one JSON object per NDJSON line)::

    -> {"id": 7, "method": "update", "tenant": "alice",
        "params": {"uri": "a.rsc", "text": "..."}}
    <- {"id": 7, "ok": true,  "result": {...}}
    <- {"id": 8, "ok": false, "error": {"code": "cancelled",
                                        "message": "superseded by request 9"}}
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.node import field
from repro.wire import EmptyParams, MethodSpec, Params, Payload, registry

#: Protocol identifier of the check service, on both transports.
PROTOCOL_V3 = "repro-serve/3"

#: Error codes a response may carry (exhaustive; the client maps unknown
#: codes to ``internal-error`` rather than crashing).
ERROR_CODES: Tuple[str, ...] = (
    "parse-error",      # the request line is not a JSON object
    "unknown-method",   # method absent from the registry
    "bad-params",       # params missing, mistyped or not an object
    "not-open",         # document/module/project not open
    "io-error",         # the server could not read a file
    "cancelled",        # the check was superseded or explicitly cancelled
    "backpressure",     # the tenant's request queue is full
    "internal-error",   # the checker crashed; the loop survives
)


# ---------------------------------------------------------------------------
# params codecs (client -> server)
# ---------------------------------------------------------------------------


class HelloParams(Params):
    """``hello``: optional protocol identifier the client prefers."""

    protocol: Optional[str] = None


class CheckParams(Params):
    """``check``/``update``/``project_update``: a URI plus optional text.

    With ``text`` omitted the URI is read as a file path server-side.
    """

    uri: str
    text: Optional[str] = None


class UriParams(Params):
    """``diagnostics``/``close``/``cancel``/``project_diagnostics``."""

    uri: str


class ProjectOpenParams(Params):
    """``project_open``: the project root directory."""

    root: str


# ---------------------------------------------------------------------------
# payload codecs (server -> client)
# ---------------------------------------------------------------------------


class CheckPayload(Payload):
    """Result of ``check``/``update`` — the per-edit verdict and counters.

    ``timings`` is the per-stage second breakdown from the span tree
    (:class:`repro.core.result.StageTimings`), so watchers and shells
    report the same stage numbers the trace shows.
    """

    uri: str = ""
    status: str = ""
    ok: bool = False
    diagnostics: List[dict] = field(default_factory=list)
    time_seconds: float = 0.0
    delta_seconds: Optional[float] = None
    queries: int = 0
    warm: bool = False
    solve_stats: Optional[dict] = None
    timings: Optional[dict] = None


class DiagnosticsPayload(Payload):
    """Result of ``diagnostics`` and ``project_diagnostics`` — a
    document's or a module's current verdict, no re-check; also each
    module's entry in the project methods' results."""

    uri: str = ""
    status: str = ""
    ok: bool = False
    diagnostics: List[dict] = field(default_factory=list)


class ClosePayload(Payload):
    uri: str = ""
    closed: bool = True


class HelloPayload(Payload):
    """Result of ``hello`` — what the server speaks, listed from the
    registry (so it can never disagree with what dispatch accepts)."""

    protocol: str = PROTOCOL_V3
    methods: List[str] = field(default_factory=list)
    tenant: str = ""


class CancelPayload(Payload):
    """Result of ``cancel`` — whether anything was actually cancelled.

    ``state`` reports what the URI's latest check was doing when the cancel
    arrived: ``"queued"`` (removed before it started), ``"inflight"``
    (cancellation token fired; the check unwinds at its next stage
    boundary) or ``"idle"`` (nothing to cancel).
    """

    uri: str = ""
    cancelled: bool = False
    state: str = "idle"


class StatsPayload(Payload):
    """Result of ``stats`` — per-tenant queue, latency, cancel, solver and
    store counters, plus lifetime totals (evicted tenants included)."""

    protocol: str = PROTOCOL_V3
    tenants: Dict[str, dict] = field(default_factory=dict)
    totals: dict = field(default_factory=dict)


class ShutdownPayload(Payload):
    shutdown: bool = True
    protocol: str = PROTOCOL_V3
    requests_served: int = 0
    checks_run: int = 0
    store: Optional[dict] = None


class ProjectBuildPayload(Payload):
    """Result of ``project_open`` — the initial build of the module graph."""

    status: str = ""
    ok: bool = False
    num_modules: int = 0
    ranks: Dict[str, int] = field(default_factory=dict)
    cyclic: List[str] = field(default_factory=list)
    modules: List[dict] = field(default_factory=list)


class ProjectUpdatePayload(Payload):
    """Result of ``project_update`` — what one module edit invalidated."""

    path: str = ""
    rechecked: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    summary_changed: bool = False
    ok: bool = False
    queries: int = 0
    modules: List[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the method registry
# ---------------------------------------------------------------------------


#: The exhaustive method registry, in the order ``hello`` and the
#: ``unknown-method`` message list the methods.
METHODS: Dict[str, MethodSpec] = registry(
    MethodSpec("check", CheckParams, CheckPayload,
               "Open (or replace) a document and check it."),
    MethodSpec("update", CheckParams, CheckPayload,
               "Re-check an open document incrementally."),
    MethodSpec("diagnostics", UriParams, DiagnosticsPayload,
               "An open document's current verdict (no re-check)."),
    MethodSpec("close", UriParams, ClosePayload,
               "Close an open document, dropping its artifacts."),
    MethodSpec("shutdown", EmptyParams, ShutdownPayload,
               "Stop the server after responding."),
    MethodSpec("project_open", ProjectOpenParams, ProjectBuildPayload,
               "Open a directory as a module graph and build it."),
    MethodSpec("project_update", CheckParams, ProjectUpdatePayload,
               "Replace one module's text and re-check the cut."),
    MethodSpec("project_diagnostics", UriParams, DiagnosticsPayload,
               "One module's current diagnostics (no re-check)."),
    MethodSpec("hello", HelloParams, HelloPayload,
               "Identify the protocol and list the methods it speaks."),
    MethodSpec("cancel", UriParams, CancelPayload,
               "Cancel the in-flight or queued check of a URI."),
    MethodSpec("stats", EmptyParams, StatsPayload,
               "Per-tenant queue depth, latency percentiles and counters."),
)
