"""The NDJSON wire layer shared by the check service and the cache server.

Both servers speak one JSON object per line over TCP (the check service
also over stdio) with the same envelope::

    -> {"id": 7, "method": "update", "params": {...}}
    <- {"id": 7, "ok": true,  "result": {...}}
    <- {"id": 8, "ok": false, "error": {"code": "bad-params", "message": "..."}}

This module holds everything about that envelope that does not depend on
which protocol is spoken: the error class and the strict field helpers, the
params/payload codec bases, the method registry (:class:`MethodSpec`,
:func:`spec_for`, :func:`method_names`), the request/response envelopes,
the asyncio line loop (:func:`read_requests`), the TCP server skeleton
(:class:`LineServer`) and its background-thread host
(:class:`ServerThread`).  A protocol module
(:mod:`repro.service.protocol`, :mod:`repro.store.protocol`) declares only
its params and payload classes, its ``METHODS`` registry and its protocol
identifier; a server declares only its dispatch.

Versioning
----------

The check service is versioned (``repro-serve/2`` and ``/3``); the cache
protocol is not.  Every version-taking function here accepts
``version=None``, meaning "the latest: every method, every field".  A
method or payload field newer than the requested version is hidden, and
the ``tenant``/``trace`` envelope fields exist only from
:data:`ENVELOPE_SINCE` on, so recorded ``repro-serve/2`` transcripts replay
byte-identically.

Codecs are unknown-field tolerant in both directions; type errors are
strict ``bad-params`` errors (``"params.uri must be a string"``).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from dataclasses import dataclass, fields
from typing import Any, AsyncIterator, Callable, Dict, Optional, Tuple

#: The serve-protocol version that introduced the ``tenant`` and ``trace``
#: envelope fields (unversioned protocols always carry them).
ENVELOPE_SINCE = 3


class ProtocolError(Exception):
    """A request or response that cannot be served or decoded."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# field extraction helpers (strict types, v2-exact messages)
# ---------------------------------------------------------------------------


def require_str(obj: dict, name: str, where: str = "params") -> str:
    value = obj.get(name)
    if not isinstance(value, str) or not value:
        raise ProtocolError("bad-params", f"{where}.{name} must be a string")
    return value


def optional_str(obj: dict, name: str, where: str = "params"
                 ) -> Optional[str]:
    value = obj.get(name)
    if value is not None and not isinstance(value, str):
        raise ProtocolError("bad-params", f"{where}.{name} must be a string")
    return value


def require_int(obj: dict, name: str) -> int:
    value = obj.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProtocolError(
            "bad-params", f"params.{name} must be a non-negative integer")
    return value


# ---------------------------------------------------------------------------
# codec bases
# ---------------------------------------------------------------------------


@dataclass
class EmptyParams:
    """Params for methods that take none (extra fields are ignored)."""

    @classmethod
    def from_json(cls, obj: dict) -> "EmptyParams":
        return cls()

    def to_json(self) -> dict:
        return {}


class Payload:
    """Shared to_json/from_json over a result dataclass's fields.

    Field declaration order *is* the JSON key order, which keeps v2
    transcript replays byte-identical.
    """

    #: Fields added after a payload first shipped, keyed by the protocol
    #: version that introduced them; ``to_json(version)`` omits fields
    #: newer than the requested version.
    FIELDS_SINCE: Dict[str, int] = {}

    def to_json(self, version: Optional[int] = None) -> dict:
        since = self.FIELDS_SINCE
        return {f.name: getattr(self, f.name) for f in fields(self)
                if version is None or since.get(f.name, 0) <= version}

    @classmethod
    def from_json(cls, obj: dict):
        if not isinstance(obj, dict):
            raise ProtocolError("parse-error",
                                f"{cls.__name__} payload must be an object")
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in obj.items() if k in known})


# ---------------------------------------------------------------------------
# the method registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """One protocol method: its codecs, introduction version and doc."""

    name: str
    since: int
    params: type
    payload: type
    doc: str


def registry(*specs: MethodSpec) -> Dict[str, MethodSpec]:
    """A protocol's ``METHODS`` table: name -> spec, in declaration order
    (error messages enumerate the methods in this order)."""
    return {spec.name: spec for spec in specs}


def method_names(methods: Dict[str, MethodSpec],
                 version: Optional[int] = None) -> Tuple[str, ...]:
    """The methods available at ``version``, in registry order."""
    return tuple(name for name, spec in methods.items()
                 if version is None or spec.since <= version)


def spec_for(methods: Dict[str, MethodSpec], method: Any,
             version: Optional[int] = None) -> MethodSpec:
    """Resolve a method name, or raise the v2-exact unknown-method error."""
    spec = methods.get(method) if isinstance(method, str) else None
    if spec is None or (version is not None and spec.since > version):
        raise ProtocolError(
            "unknown-method",
            f"unknown method {method!r} "
            f"(expected one of {', '.join(method_names(methods, version))})")
    return spec


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def _has_envelope(version: Optional[int]) -> bool:
    return version is None or version >= ENVELOPE_SINCE


@dataclass
class Request:
    """One decoded request: method + typed params (+ tenant/trace).

    ``trace`` carries the client's active trace id (:mod:`repro.obs.trace`)
    so a fleet's traffic can be stitched into one cross-process trace.
    """

    method: str
    id: Any = None
    params: Any = None
    tenant: Optional[str] = None
    trace: Optional[str] = None

    @property
    def uri(self) -> Optional[str]:
        """The target URI, when the params carry one (supersede matching)."""
        return getattr(self.params, "uri", None)

    def to_json(self, version: Optional[int] = None) -> dict:
        obj: dict = {"id": self.id, "method": self.method}
        if _has_envelope(version):
            if self.tenant is not None:
                obj["tenant"] = self.tenant
            if self.trace is not None:
                obj["trace"] = self.trace
        params = self.params.to_json() if self.params is not None else {}
        if params:
            obj["params"] = params
        return obj


def decode_request(methods: Dict[str, MethodSpec], obj: dict,
                   version: Optional[int] = None) -> Request:
    """Decode one request object; raises :class:`ProtocolError`.

    Validation order matches the v2 server (method first, then the params
    shape), so error transcripts replay identically.
    """
    spec = spec_for(methods, obj.get("method"), version)
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("bad-params", "params must be an object")
    tenant = trace = None
    if _has_envelope(version):
        tenant = optional_str(obj, "tenant", where="request")
        trace = optional_str(obj, "trace", where="request")
    return Request(method=spec.name, id=obj.get("id"),
                   params=spec.params.from_json(params), tenant=tenant,
                   trace=trace)


def parse_line(line: str) -> dict:
    """One NDJSON request line as a JSON object; raises ``parse-error``."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("parse-error",
                            f"malformed request: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("parse-error", "request must be a JSON object")
    return obj


@dataclass
class Response:
    """One response: ``ok`` with a result payload, or an error."""

    id: Any = None
    ok: bool = True
    result: Optional[dict] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None

    @classmethod
    def success(cls, request_id: Any, payload: Any,
                version: Optional[int] = None) -> "Response":
        if isinstance(payload, Payload):
            result = payload.to_json(version)
        elif hasattr(payload, "to_json"):
            result = payload.to_json()
        else:
            result = payload
        return cls(id=request_id, ok=True, result=result)

    @classmethod
    def failure(cls, request_id: Any, code: str,
                message: str) -> "Response":
        return cls(id=request_id, ok=False, error_code=code,
                   error_message=message)

    def raise_for_error(self) -> dict:
        """The result payload, or the error re-raised client-side."""
        if not self.ok:
            raise ProtocolError(self.error_code or "internal-error",
                                self.error_message or "unknown error")
        return self.result if self.result is not None else {}

    def to_json(self) -> dict:
        if self.ok:
            return {"id": self.id, "ok": True, "result": self.result}
        return {"id": self.id, "ok": False,
                "error": {"code": self.error_code,
                          "message": self.error_message}}

    @classmethod
    def from_json(cls, obj: dict) -> "Response":
        if not isinstance(obj, dict):
            raise ProtocolError("parse-error",
                                "response must be a JSON object")
        if obj.get("ok"):
            return cls(id=obj.get("id"), ok=True, result=obj.get("result"))
        error = obj.get("error") or {}
        if not isinstance(error, dict):
            error = {}
        return cls(id=obj.get("id"), ok=False,
                   error_code=error.get("code") or "internal-error",
                   error_message=error.get("message") or "unknown error")


def parse_error_response(message: str) -> Response:
    """The ``id: null`` response for an undecodable input line."""
    return Response.failure(None, "parse-error", message)


# ---------------------------------------------------------------------------
# the asyncio line loop
# ---------------------------------------------------------------------------


def line_sender(writer: asyncio.StreamWriter) -> Callable:
    """An ``async send(response)`` writing one NDJSON line per response.

    Writes are serialised, so concurrent tasks answering requests of one
    connection never interleave their lines; a client that went away is
    ignored (the response is dropped).
    """
    lock = asyncio.Lock()

    async def send(response: Response) -> None:
        line = json.dumps(response.to_json()) + "\n"
        try:
            async with lock:
                writer.write(line.encode("utf-8"))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    return send


async def read_requests(reader: asyncio.StreamReader, send: Callable,
                        methods: Dict[str, MethodSpec],
                        version: Optional[int] = None,
                        on_line: Optional[Callable[[], None]] = None,
                        on_object: Optional[Callable[[], None]] = None
                        ) -> AsyncIterator[Request]:
    """Yield every decoded request read from ``reader``.

    Blank lines are skipped.  A line that fails to decode is answered
    through ``send`` and skipped; a line over the reader's limit is
    answered and ends the stream, as does end of input.  ``on_line`` runs
    for every non-blank line and ``on_object`` for every line that parses
    as a JSON object, so each server counts requests where it always has.
    """
    while True:
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            await send(parse_error_response("request line too long"))
            return
        if not raw:
            return
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        if on_line is not None:
            on_line()
        try:
            obj = parse_line(line)
        except ProtocolError as exc:
            await send(parse_error_response(exc.message))
            continue
        if on_object is not None:
            on_object()
        try:
            request = decode_request(methods, obj, version)
        except ProtocolError as exc:
            await send(Response.failure(obj.get("id"), exc.code,
                                        exc.message))
            continue
        yield request


class LineServer:
    """An asyncio NDJSON TCP server: bind, serve clients, stop on request.

    Subclasses implement :meth:`_on_client` (one connection's request loop,
    usually over :func:`read_requests`) and may extend :meth:`_drain`,
    which runs after the listener closed.
    """

    #: NDJSON line limit for the stream reader.
    LINE_LIMIT = 16 * 1024 * 1024

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None

    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=self.LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`)."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._drain()

    def request_stop(self) -> None:
        """Stop the server from the event-loop thread."""
        if self._stop is not None:
            self._stop.set()

    async def _drain(self) -> None:
        """Release what the server holds once it stopped accepting."""

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError


def run_blocking(server: LineServer, banner: dict) -> int:
    """Serve until shutdown, first printing the bound address as one JSON
    line (``{"listening": {"host": ..., "port": ...}, **banner}``)."""

    async def main() -> None:
        await server.start()
        print(json.dumps({"listening": {"host": server.host,
                                        "port": server.port}, **banner}),
              flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0


class ServerThread:
    """Host a :class:`LineServer` on a background thread.

    Usage::

        with ServerThread(AsyncCheckServer(config)) as server:
            client = Client.connect(server.host, server.port)
            ...

    ``port`` is the bound port (an ephemeral one unless pinned) once the
    context is entered / :meth:`start` returns.
    """

    def __init__(self, server: LineServer) -> None:
        self.server = server
        self.host = server.host
        self.port = server.port
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name=type(self.server).__name__, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError(
                f"{type(self.server).__name__} failed to start in time")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface bind errors to start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_event_loop()
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self.server.serve_until_shutdown()

    def stop(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

