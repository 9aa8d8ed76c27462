"""The typed serve protocol: params/payload codecs and the method registry.

Every method the check service speaks is declared **once**, in
:data:`METHODS` — a name-ordered registry of
:class:`repro.wire.MethodSpec` entries binding the method name to its
params dataclass, its result payload dataclass and the protocol version
that introduced it.  The envelopes and the registry helpers
(:func:`repro.wire.spec_for`, :func:`repro.wire.decode_request`, ...) live
in :mod:`repro.wire`.  The stdio server, the asyncio socket server, the
synchronous client and the rendered method docs (:func:`describe_methods`)
all consult the same registry, so a method cannot exist half-way: adding
one here is what adds it everywhere.

Versioning
----------

Two protocol versions share the registry:

* ``repro-serve/2`` — the original stdio NDJSON protocol.  Decoding with
  ``version=2`` accepts exactly the original eight methods, produces the
  original error messages verbatim, and ignores v3-only envelope fields, so
  recorded v2 transcripts replay byte-identically through the shim.
* ``repro-serve/3`` — adds the ``tenant`` envelope field (many isolated
  workspaces behind one server) and the ``hello``, ``cancel`` and ``stats``
  methods.

Codecs are **unknown-field tolerant** in both directions: decoding ignores
JSON keys it does not know (so a v3 client can talk to a shim that predates
a field) and encoding emits only the fields a dataclass declares.  Type
errors, by contrast, are strict and produce ``bad-params`` errors with the
same messages the v2 server used (``"params.uri must be a string"``).

Wire shapes (one JSON object per NDJSON line)::

    -> {"id": 7, "method": "update", "tenant": "alice",
        "params": {"uri": "a.rsc", "text": "..."}}
    <- {"id": 7, "ok": true,  "result": {...}}
    <- {"id": 8, "ok": false, "error": {"code": "cancelled",
                                        "message": "superseded by request 9"}}
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.wire import (EmptyParams, MethodSpec, Payload, method_names,
                        optional_str, registry, require_str)

#: Protocol identifier of the stdio compatibility shim.
PROTOCOL_V2 = "repro-serve/2"

#: Protocol identifier of the multi-tenant async service.
PROTOCOL_V3 = "repro-serve/3"

#: Version number -> protocol identifier.
PROTOCOLS: Dict[int, str] = {2: PROTOCOL_V2, 3: PROTOCOL_V3}

#: Error codes a response may carry (exhaustive; the client maps unknown
#: codes to ``internal-error`` rather than crashing).
ERROR_CODES: Tuple[str, ...] = (
    "parse-error",      # the request line is not a JSON object
    "unknown-method",   # method absent from the registry (at this version)
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


@dataclass
class HelloParams:
    """``hello``: optional protocol identifier the client prefers."""

    protocol: Optional[str] = None

    @classmethod
    def from_json(cls, obj: dict) -> "HelloParams":
        return cls(protocol=optional_str(obj, "protocol"))

    def to_json(self) -> dict:
        return {} if self.protocol is None else {"protocol": self.protocol}


@dataclass
class CheckParams:
    """``check``/``update``/``project_update``: a URI plus optional text.

    With ``text`` omitted the URI is read as a file path server-side.
    """

    uri: str
    text: Optional[str] = None

    @classmethod
    def from_json(cls, obj: dict) -> "CheckParams":
        return cls(uri=require_str(obj, "uri"),
                   text=optional_str(obj, "text"))

    def to_json(self) -> dict:
        payload: dict = {"uri": self.uri}
        if self.text is not None:
            payload["text"] = self.text
        return payload


@dataclass
class UriParams:
    """``diagnostics``/``close``/``cancel``/``project_diagnostics``."""

    uri: str

    @classmethod
    def from_json(cls, obj: dict) -> "UriParams":
        return cls(uri=require_str(obj, "uri"))

    def to_json(self) -> dict:
        return {"uri": self.uri}


@dataclass
class ProjectOpenParams:
    """``project_open``: the project root directory."""

    root: str

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectOpenParams":
        return cls(root=require_str(obj, "root"))

    def to_json(self) -> dict:
        return {"root": self.root}


# ---------------------------------------------------------------------------
# payload codecs (server -> client)
# ---------------------------------------------------------------------------


@dataclass
class CheckPayload(Payload):
    """Result of ``check``/``update`` — the per-edit verdict and counters.

    ``timings`` (v3 only) is the per-stage second breakdown from the span
    tree (:class:`repro.core.result.StageTimings`), so watchers and shells
    report the same stage numbers the trace shows.
    """

    FIELDS_SINCE = {"timings": 3}

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


@dataclass
class DiagnosticsPayload(Payload):
    """Result of ``diagnostics`` — the current verdict, no re-check."""

    uri: str = ""
    status: str = ""
    ok: bool = False
    diagnostics: List[dict] = field(default_factory=list)


@dataclass
class ClosePayload(Payload):
    uri: str = ""
    closed: bool = True


@dataclass
class HelloPayload(Payload):
    """Result of ``hello`` — what the server speaks, rendered from the
    registry (so it can never disagree with what dispatch accepts)."""

    protocol: str = PROTOCOL_V3
    methods: List[str] = field(default_factory=list)
    tenant: str = ""


@dataclass
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


@dataclass
class StatsPayload(Payload):
    """Result of ``stats`` — per-tenant queue/latency/cancel counters."""

    protocol: str = PROTOCOL_V3
    tenants: Dict[str, dict] = field(default_factory=dict)
    totals: dict = field(default_factory=dict)


@dataclass
class MetricsPayload(Payload):
    """Result of ``metrics`` — the unified registry snapshot
    (:class:`repro.obs.metrics.MetricsRegistry`), totals plus per-tenant."""

    protocol: str = PROTOCOL_V3
    totals: dict = field(default_factory=dict)
    tenants: Dict[str, dict] = field(default_factory=dict)


@dataclass
class ShutdownPayload(Payload):
    shutdown: bool = True
    protocol: str = PROTOCOL_V2
    requests_served: int = 0
    checks_run: int = 0
    store: Optional[dict] = None


@dataclass
class ModulePayload(Payload):
    """One module's verdict inside the project methods' results."""

    uri: str = ""
    status: str = ""
    ok: bool = False
    diagnostics: List[dict] = field(default_factory=list)


@dataclass
class ProjectBuildPayload(Payload):
    """Result of ``project_open`` — the initial build of the module graph."""

    status: str = ""
    ok: bool = False
    num_modules: int = 0
    ranks: Dict[str, int] = field(default_factory=dict)
    cyclic: List[str] = field(default_factory=list)
    modules: List[dict] = field(default_factory=list)


@dataclass
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


#: The exhaustive method registry.  Insertion order is load-bearing: the
#: first eight entries reproduce the v2 ``METHODS`` tuple (error messages
#: enumerate them in this order), v3-only methods follow.
METHODS: Dict[str, MethodSpec] = registry(
    MethodSpec("check", 2, CheckParams, CheckPayload,
               "Open (or replace) a document and check it."),
    MethodSpec("update", 2, CheckParams, CheckPayload,
               "Re-check an open document incrementally."),
    MethodSpec("diagnostics", 2, UriParams, DiagnosticsPayload,
               "An open document's current verdict (no re-check)."),
    MethodSpec("close", 2, UriParams, ClosePayload,
               "Close an open document, dropping its artifacts."),
    MethodSpec("shutdown", 2, EmptyParams, ShutdownPayload,
               "Stop the server after responding."),
    MethodSpec("project_open", 2, ProjectOpenParams, ProjectBuildPayload,
               "Open a directory as a module graph and build it."),
    MethodSpec("project_update", 2, CheckParams, ProjectUpdatePayload,
               "Replace one module's text and re-check the cut."),
    MethodSpec("project_diagnostics", 2, UriParams, ModulePayload,
               "One module's current diagnostics (no re-check)."),
    MethodSpec("hello", 3, HelloParams, HelloPayload,
               "Identify the protocol and list the methods it speaks."),
    MethodSpec("cancel", 3, UriParams, CancelPayload,
               "Cancel the in-flight or queued check of a URI."),
    MethodSpec("stats", 3, EmptyParams, StatsPayload,
               "Per-tenant queue depth, latency percentiles and counters."),
    MethodSpec("metrics", 3, EmptyParams, MetricsPayload,
               "The unified metrics registry: counters, gauges, histograms."),
)


def describe_methods(version: int = 3) -> List[dict]:
    """The registry rendered for docs and the ``hello`` response."""
    out = []
    for name in method_names(METHODS, version):
        spec = METHODS[name]
        out.append({
            "method": name,
            "since": PROTOCOLS[spec.since],
            "params": [f.name for f in fields(spec.params)],
            "result": [f.name for f in fields(spec.payload)],
            "doc": spec.doc,
        })
    return out
