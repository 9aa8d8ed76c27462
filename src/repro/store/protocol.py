"""The typed cache-server protocol: ``repro-store/1``.

Every method the cache server speaks is declared **once**, in
:data:`METHODS`, binding the method name to its params dataclass and its
result payload dataclass.  The asyncio server, the pooled socket client
and the rendered ``ping`` response all consult the same registry, so a
method cannot exist half-way.  The envelope, the registry helpers and the
line loop are the ones the check service uses (:mod:`repro.wire`).

The protocol is deliberately tiny — a shared artifact store has exactly two
data operations and a handful of admin operations::

    get / put            opaque (kind, key) -> payload bytes
    stats / gc / clear   what ``repro cache stats|gc|clear`` needs remotely
    ping                 liveness + identification (readiness probes)
    shutdown             stop the server after responding

Wire shape: one JSON object per NDJSON line, the same envelope the serve
protocol uses::

    -> {"id": 3, "method": "get", "params": {"kind": "verdicts", "key": "ab..."}}
    <- {"id": 3, "ok": true, "result": {"found": true, "payload_b64": "..."}}
    <- {"id": 4, "ok": false, "error": {"code": "bad-params", "message": "..."}}

Payload bytes travel base64-encoded (``payload_b64``) — the store deals in
opaque bytes (encoding and corruption handling live in
:class:`repro.store.ArtifactStore`, which already treats anything
undecodable as a miss, so a corrupted response can never poison a client).
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.wire import (EmptyParams, MethodSpec, Payload, ProtocolError,
                        registry, require_int, require_str)

#: Protocol identifier spoken by the cache server and its clients.
STORE_PROTOCOL = "repro-store/1"

#: Error codes a response may carry (clients map unknown codes to
#: ``internal-error`` rather than crashing).
ERROR_CODES: Tuple[str, ...] = (
    "parse-error",      # the request line is not a JSON object
    "unknown-method",   # method absent from the registry
    "bad-params",       # params missing, mistyped or not an object
    "internal-error",   # the backend operation crashed; the loop survives
)


def encode_payload(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def decode_payload(text: str) -> bytes:
    """Decode ``payload_b64``; malformed base64 raises, callers degrade."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, binascii.Error) as exc:
        raise ProtocolError("parse-error",
                            f"malformed payload_b64: {exc}") from None


# ---------------------------------------------------------------------------
# params codecs (client -> server)
# ---------------------------------------------------------------------------


@dataclass
class EntryParams:
    """``get``: the (kind, key) address of one artifact."""

    kind: str
    key: str

    @classmethod
    def from_json(cls, obj: dict) -> "EntryParams":
        return cls(kind=require_str(obj, "kind"), key=require_str(obj, "key"))

    def to_json(self) -> dict:
        return {"kind": self.kind, "key": self.key}


@dataclass
class PutParams:
    """``put``: an artifact address plus its base64-encoded bytes."""

    kind: str
    key: str
    payload_b64: str

    @classmethod
    def from_json(cls, obj: dict) -> "PutParams":
        return cls(kind=require_str(obj, "kind"),
                   key=require_str(obj, "key"),
                   payload_b64=require_str(obj, "payload_b64"))

    def to_json(self) -> dict:
        return {"kind": self.kind, "key": self.key,
                "payload_b64": self.payload_b64}


@dataclass
class GcParams:
    """``gc``: the byte bound the store must be evicted down to."""

    max_bytes: int

    @classmethod
    def from_json(cls, obj: dict) -> "GcParams":
        return cls(max_bytes=require_int(obj, "max_bytes"))

    def to_json(self) -> dict:
        return {"max_bytes": self.max_bytes}


# ---------------------------------------------------------------------------
# payload codecs (server -> client)
# ---------------------------------------------------------------------------


@dataclass
class GetPayload(Payload):
    """Result of ``get`` — a hit carries the entry bytes, base64-encoded."""

    found: bool = False
    payload_b64: Optional[str] = None


@dataclass
class PutPayload(Payload):
    """Result of ``put`` — whether the backend accepted the write."""

    stored: bool = False


@dataclass
class StatsPayload(Payload):
    """Result of ``stats`` — the server-side store's per-kind usage."""

    kinds: Dict[str, dict] = field(default_factory=dict)
    total_entries: int = 0
    total_bytes: int = 0


@dataclass
class GcPayload(Payload):
    """Result of ``gc`` — what the server-side pass evicted and kept."""

    evicted_entries: int = 0
    evicted_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0


@dataclass
class ClearPayload(Payload):
    """Result of ``clear`` — how many entries were dropped."""

    removed: int = 0


@dataclass
class PingPayload(Payload):
    """Result of ``ping`` — identification, liveness and server counters.

    ``faults`` reports the fault-injection counters when the server runs
    with a :class:`repro.store.server.FaultPlan` (``None`` in normal
    operation), so a bench can prove degraded paths were actually hit.
    """

    protocol: str = STORE_PROTOCOL
    methods: List[str] = field(default_factory=list)
    requests_served: int = 0
    store: str = ""
    faults: Optional[dict] = None


@dataclass
class ShutdownPayload(Payload):
    """Result of ``shutdown`` — acknowledged; the server stops after this."""

    shutdown: bool = True
    protocol: str = STORE_PROTOCOL
    requests_served: int = 0


# ---------------------------------------------------------------------------
# the method registry
# ---------------------------------------------------------------------------


#: The exhaustive method registry (insertion order is the documented order).
METHODS: Dict[str, MethodSpec] = registry(
    MethodSpec("get", 1, EntryParams, GetPayload,
               "Fetch the payload stored under (kind, key), if any."),
    MethodSpec("put", 1, PutParams, PutPayload,
               "Store a payload under (kind, key); last write wins."),
    MethodSpec("stats", 1, EmptyParams, StatsPayload,
               "Per-kind entry counts and byte totals of the server's store."),
    MethodSpec("gc", 1, GcParams, GcPayload,
               "Evict oldest entries until at most max_bytes remain."),
    MethodSpec("clear", 1, EmptyParams, ClearPayload,
               "Drop every entry from the server's store."),
    MethodSpec("ping", 1, EmptyParams, PingPayload,
               "Liveness probe: protocol, methods and request counters."),
    MethodSpec("shutdown", 1, EmptyParams, ShutdownPayload,
               "Stop the server after responding."),
)
