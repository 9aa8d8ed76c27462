"""The asyncio TCP cache server (``repro cache serve --tcp``).

One process owns a :class:`repro.store.local.LocalStoreBackend` and serves
it to a fleet of checkers over the typed ``repro-store/1`` protocol
(:mod:`repro.store.protocol`).  Clients are handled concurrently by the
event loop; backend operations (sharded-file reads/writes) run inline —
they are microsecond-scale and the local backend's atomic-rename discipline
makes interleaved writers safe, so no executor or locking is needed.

Admin methods (``stats``/``gc``/``clear``/``ping``/``shutdown``) make
``repro cache stats|gc|clear`` work against a ``remote://host:port`` URL
exactly as they do against a path.

Fault injection
---------------

A :class:`FaultPlan` makes the server deliberately hostile for soundness
testing (``repro cache serve --fault-*``, ``repro bench cache``): every
Nth data operation is dropped (the connection closes without a response),
delayed, or answered with corrupted payload bytes.  Clients must degrade
every one of these to a cache miss — the bench asserts verdicts stay
byte-identical under all three.  Faults only apply to ``get``/``put``;
admin methods always answer, so liveness probes and stats collection work
even on a maximally faulty server.

The line loop, the listener and the background-thread host
(:class:`repro.wire.ServerThread`, used by tests, benches and examples) are
shared with the check server (:mod:`repro.wire`); :func:`run_store_server`
is the blocking CLI entry point.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Optional

from repro.store.backend import StoreBackend
from repro.obs.trace import span as trace_span
from repro.store.local import LocalStoreBackend
from repro.store.protocol import (METHODS, STORE_PROTOCOL, ClearPayload,
                                  GcPayload, GetPayload, PingPayload,
                                  PutPayload, ShutdownPayload, StatsPayload,
                                  decode_payload, encode_payload)
from repro.wire import (LineServer, ProtocolError, Request, Response,
                        line_sender, method_names, read_requests,
                        run_blocking)

#: Methods fault injection applies to (admin methods always answer).
DATA_METHODS = frozenset({"get", "put"})


@dataclass
class FaultPlan:
    """Deterministic fault injection over the server's data operations.

    Each ``*_every`` knob fires on every Nth data operation (0 disables
    that fault), counted over one shared operation counter so a fixed
    request sequence always sees the same faults.  ``corrupt`` mangles the
    payload bytes of a ``get`` hit (still valid base64 — the corruption
    must survive the transport and be caught by the artifact codec, the
    deepest degraded path); ``drop`` closes the connection instead of
    responding; ``delay`` sleeps before responding.
    """

    drop_every: int = 0
    delay_every: int = 0
    corrupt_every: int = 0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        self.ops = 0
        self.dropped = 0
        self.delayed = 0
        self.corrupted = 0

    def next_op(self) -> tuple:
        """(drop, delay, corrupt) decisions for the next data operation."""
        self.ops += 1
        drop = bool(self.drop_every) and self.ops % self.drop_every == 0
        delay = bool(self.delay_every) and self.ops % self.delay_every == 0
        corrupt = (bool(self.corrupt_every)
                   and self.ops % self.corrupt_every == 0)
        if drop:
            self.dropped += 1
        if delay:
            self.delayed += 1
        if corrupt and not drop:
            self.corrupted += 1
        return drop, delay, corrupt

    def counters(self) -> dict:
        return {"ops": self.ops, "dropped": self.dropped,
                "delayed": self.delayed, "corrupted": self.corrupted}


def _corrupt(payload: bytes) -> bytes:
    """Same-length garbage that defeats the artifact codec's envelope."""
    prefix = b"\xffCORRUPT"
    return (prefix + payload[len(prefix):]) if len(payload) > len(prefix) \
        else prefix


class _Shutdown(Exception):
    """Raised inside a connection loop after a shutdown was acknowledged."""


class _Drop(Exception):
    """Raised to vanish mid-request (fault injection): the connection is
    closed without a response and without an unhandled-exception log."""


class StoreServer(LineServer):
    """The asyncio TCP server fronting one :class:`StoreBackend`."""

    #: NDJSON line limit for the stream reader (payloads are base64 lines).
    LINE_LIMIT = 64 * 1024 * 1024

    def __init__(self, root: Optional[str] = None,
                 backend: Optional[StoreBackend] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 faults: Optional[FaultPlan] = None) -> None:
        if backend is None:
            if root is None:
                raise ValueError("StoreServer needs a root path or a backend")
            backend = LocalStoreBackend(root)
        super().__init__(host, port)
        self.backend = backend
        self.root = str(root) if root is not None else ""
        self.faults = faults
        self.requests_served = 0
        self._connections: set = set()

    async def _drain(self) -> None:
        # Close idle client connections so their handler tasks see EOF and
        # finish on their own — tearing the loop down with tasks parked in
        # readline() would spray CancelledError tracebacks.
        for writer in list(self._connections):
            with contextlib.suppress(ConnectionError, RuntimeError):
                writer.close()
        await asyncio.sleep(0)

    # -- connection handling -----------------------------------------------

    def _count_request(self) -> None:
        self.requests_served += 1

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        send = line_sender(writer)
        requests = read_requests(reader, send, METHODS,
                                 on_line=self._count_request)
        try:
            async with contextlib.aclosing(requests):
                async for request in requests:
                    try:
                        await self._serve_one(request, send)
                    except _Drop:
                        break
                    except _Shutdown:
                        self.request_stop()
                        break
        except asyncio.CancelledError:
            pass  # loop teardown mid-read; the connection is going away
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(ConnectionError):
                writer.close()

    async def _serve_one(self, request: Request, send) -> None:
        """Execute one request, weaving in the fault plan for data ops."""
        drop = delay = corrupt = False
        if self.faults is not None and request.method in DATA_METHODS:
            drop, delay, corrupt = self.faults.next_op()
        extra = {"trace": request.trace} if request.trace else {}
        try:
            with trace_span("store.serve", "store", method=request.method,
                            **extra):
                payload = self._dispatch(request, corrupt=corrupt)
            response = Response.success(request.id, payload)
        except ProtocolError as exc:
            response = Response.failure(request.id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — one bad request must not
            # take the server down; the contract is one response per line.
            response = Response.failure(
                request.id, "internal-error", f"{type(exc).__name__}: {exc}")
        if delay and self.faults is not None:
            await asyncio.sleep(self.faults.delay_seconds)
        if drop:
            # Vanish mid-request: no response, the connection dies.  The
            # client sees EOF and must treat the operation as a miss.
            raise _Drop()
        await send(response)
        if request.method == "shutdown":
            raise _Shutdown()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, request: Request, corrupt: bool = False):
        method = request.method
        params = request.params
        if method == "get":
            payload = self.backend.get(params.kind, params.key)
            if payload is None:
                return GetPayload(found=False)
            if corrupt:
                payload = _corrupt(payload)
            return GetPayload(found=True, payload_b64=encode_payload(payload))
        if method == "put":
            stored = self.backend.put(params.kind, params.key,
                                      decode_payload(params.payload_b64))
            return PutPayload(stored=stored)
        if method == "stats":
            stats = self.backend.stats()
            return StatsPayload(
                kinds={name: {"entries": k.entries, "bytes": k.bytes}
                       for name, k in sorted(stats.kinds.items())},
                total_entries=stats.total_entries,
                total_bytes=stats.total_bytes)
        if method == "gc":
            result = self.backend.gc(params.max_bytes)
            return GcPayload(**result.to_dict())
        if method == "clear":
            return ClearPayload(removed=self.backend.clear())
        if method == "ping":
            return PingPayload(
                protocol=STORE_PROTOCOL, methods=list(method_names(METHODS)),
                requests_served=self.requests_served, store=self.root,
                faults=self.faults.counters() if self.faults else None)
        assert method == "shutdown", method
        return ShutdownPayload(shutdown=True, protocol=STORE_PROTOCOL,
                               requests_served=self.requests_served)


def run_store_server(root: str, host: str = "127.0.0.1", port: int = 0,
                     faults: Optional[FaultPlan] = None) -> int:
    """Blocking entry point for ``repro cache serve --tcp``."""
    return run_blocking(
        StoreServer(root=root, host=host, port=port, faults=faults),
        {"protocol": STORE_PROTOCOL, "store": str(root)})
