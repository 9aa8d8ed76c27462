"""The NDJSON wire layer of the check service.

The service speaks one JSON object per line, over stdio or TCP, with this
envelope::

    -> {"id": 7, "method": "update", "params": {...}}
    <- {"id": 7, "ok": true,  "result": {...}}
    <- {"id": 8, "ok": false, "error": {"code": "bad-params", "message": "..."}}

This module holds everything about that envelope that does not depend on
the methods spoken: the error class and the strict field helpers, the
params/payload codec bases, the method registry (:class:`MethodSpec`,
:func:`spec_for`, :func:`method_names`), the request/response envelopes,
the asyncio line loop (:func:`read_requests`) and the background-thread
server host (:class:`ServerThread`).  The protocol module
(:mod:`repro.service.protocol`) declares only its params and payload
classes, its ``METHODS`` registry and its protocol identifier; the
server declares only its dispatch.

Codecs are unknown-field tolerant in both directions; type errors are
strict ``bad-params`` errors (``"params.uri must be a string"``).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import (TYPE_CHECKING, Any, AsyncIterator, Callable, Dict,
                    Optional, Tuple)

from repro.node import MISSING, Record, fields

if TYPE_CHECKING:
    from repro.service.server import AsyncCheckServer


class ProtocolError(Exception):
    """A request or response that cannot be served or decoded."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# field extraction helpers (strict types)
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


# ---------------------------------------------------------------------------
# codec bases
# ---------------------------------------------------------------------------


class Params(Record):
    """Shared from_json/to_json over a params record's fields.

    A field without a default is a required string, a field defaulting to
    ``None`` an optional one; ``None`` is omitted on encode.  Field
    declaration order is the JSON key order and the order fields are
    validated in.
    """

    @classmethod
    def from_json(cls, obj: dict):
        return cls(**{
            f.name: (require_str(obj, f.name) if f.default is MISSING
                     else optional_str(obj, f.name))
            for f in fields(cls)})

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


class EmptyParams(Params):
    """Params for methods that take none (extra fields are ignored)."""


class Payload(Record):
    """Shared to_json/from_json over a result record's fields.

    Field declaration order *is* the JSON key order.
    """

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


class MethodSpec(Record, frozen=True):
    """One protocol method: its codecs and doc."""

    name: str
    params: type
    payload: type
    doc: str


def registry(*specs: MethodSpec) -> Dict[str, MethodSpec]:
    """A protocol's ``METHODS`` table: name -> spec, in declaration order
    (error messages enumerate the methods in this order)."""
    return {spec.name: spec for spec in specs}


def method_names(methods: Dict[str, MethodSpec]) -> Tuple[str, ...]:
    """The registry's method names, in registry order."""
    return tuple(methods)


def spec_for(methods: Dict[str, MethodSpec], method: Any) -> MethodSpec:
    """Resolve a method name, or raise an ``unknown-method`` error."""
    spec = methods.get(method) if isinstance(method, str) else None
    if spec is None:
        raise ProtocolError(
            "unknown-method",
            f"unknown method {method!r} "
            f"(expected one of {', '.join(method_names(methods))})")
    return spec


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


class Request(Record):
    """One decoded request: method + typed params (+ tenant/trace).

    ``trace`` carries the client's active trace id (:mod:`repro.obs.trace`)
    so client and server spans can be stitched into one cross-process
    trace.
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

    def to_json(self) -> dict:
        obj: dict = {"id": self.id, "method": self.method}
        if self.tenant is not None:
            obj["tenant"] = self.tenant
        if self.trace is not None:
            obj["trace"] = self.trace
        params = self.params.to_json() if self.params is not None else {}
        if params:
            obj["params"] = params
        return obj


def decode_request(methods: Dict[str, MethodSpec], obj: dict) -> Request:
    """Decode one request object; raises :class:`ProtocolError`.

    The method is validated before the params shape, so a bogus method
    with bogus params reports ``unknown-method``.
    """
    spec = spec_for(methods, obj.get("method"))
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("bad-params", "params must be an object")
    return Request(method=spec.name, id=obj.get("id"),
                   params=spec.params.from_json(params),
                   tenant=optional_str(obj, "tenant", where="request"),
                   trace=optional_str(obj, "trace", where="request"))


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


class Response(Record):
    """One response: ``ok`` with a result payload, or an error."""

    id: Any = None
    ok: bool = True
    result: Optional[dict] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None

    @classmethod
    def success(cls, request_id: Any, payload: Any) -> "Response":
        result = payload.to_json() if hasattr(payload, "to_json") else payload
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
                        on_object: Optional[Callable[[], None]] = None
                        ) -> AsyncIterator[Request]:
    """Yield every decoded request read from ``reader``.

    Blank lines are skipped.  A line that fails to decode is answered
    through ``send`` and skipped; a line over the reader's limit is
    answered and ends the stream, as does end of input.  ``on_object``
    runs for every line that parses as a JSON object (the service's
    request counter).
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
        try:
            obj = parse_line(line)
        except ProtocolError as exc:
            await send(parse_error_response(exc.message))
            continue
        if on_object is not None:
            on_object()
        try:
            request = decode_request(methods, obj)
        except ProtocolError as exc:
            await send(Response.failure(obj.get("id"), exc.code,
                                        exc.message))
            continue
        yield request


class ServerThread:
    """Host an :class:`~repro.service.server.AsyncCheckServer` on a
    background thread.

    Usage::

        with ServerThread(AsyncCheckServer(config)) as server:
            client = Client.connect(server.host, server.port)
            ...

    ``port`` is the bound port (an ephemeral one unless pinned) once the
    context is entered / :meth:`start` returns.
    """

    def __init__(self, server: AsyncCheckServer) -> None:
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

