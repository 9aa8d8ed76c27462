"""``repro.client`` — the synchronous check-service client.

Everything that talks to the check service — tests, the watch loop,
``repro bench serve``, the example driver — goes through one
:class:`Client`, so the protocol has a single client-side code path.  The
client speaks ``repro-serve/3`` — the one protocol of both ``repro
serve`` transports — over a pluggable transport:

* :meth:`Client.connect` — a TCP socket to an
  :class:`repro.service.server.AsyncCheckServer`;
* :meth:`Client.local` — an in-process
  :class:`repro.service.core.ServiceCore`, no sockets, no threads (what
  ``repro watch`` uses).

Typed convenience methods decode results back into the payload dataclasses
of :mod:`repro.service.protocol`::

    with Client.connect("127.0.0.1", 7345, tenant="alice") as client:
        payload = client.check("a.rsc", "function id(x: number) ...")
        assert payload.ok and payload.status == "SAFE"
        client.shutdown()

Error responses raise :class:`repro.wire.ProtocolError` with
the server's code/message.  For pipelined traffic (several requests in
flight at once — how the bench provokes superseding cancellations) use
:meth:`Client.submit` / :meth:`Client.wait`, which match responses to
requests by ``id`` and never raise on error responses.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from repro.core.config import CheckConfig
from repro.obs.trace import current_trace_id
from repro.service.core import ServiceCore
from repro.service.protocol import METHODS
from repro.wire import ProtocolError, Request, Response, spec_for


class SocketTransport:
    """NDJSON over a TCP socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")

    @classmethod
    def connect(cls, host: str, port: int,
                timeout: Optional[float] = None) -> "SocketTransport":
        sock = socket.create_connection((host, port), timeout=timeout)
        # Pipelined edits must reach the server immediately — Nagle would
        # hold a superseding edit back until the previous line is ACKed,
        # letting the stale check finish instead of being cancelled.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def send(self, obj: dict) -> None:
        self._file.write((json.dumps(obj) + "\n").encode("utf-8"))
        self._file.flush()

    def recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ProtocolError("io-error", "server closed the connection")
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ProtocolError("parse-error",
                                f"malformed response: {exc}")
        if not isinstance(obj, dict):
            raise ProtocolError("parse-error",
                                "response must be a JSON object")
        return obj

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class LocalTransport:
    """An in-process :class:`ServiceCore` behind the transport interface.

    Requests execute synchronously on :meth:`send`; :meth:`recv` pops the
    finished responses in order.  ``core`` is exposed so embedders (the
    watch loop, tests) can reach the underlying tenant workspaces.
    """

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.core = ServiceCore(config)
        self._outbox: list = []

    def send(self, obj: dict) -> None:
        self._outbox.append(self.core.handle_raw(obj).to_json())

    def recv(self) -> dict:
        if not self._outbox:
            raise ProtocolError("io-error", "no response pending")
        return self._outbox.pop(0)

    def close(self) -> None:
        self._outbox.clear()


class Client:
    """A synchronous ``repro-serve/3`` client over a pluggable transport."""

    def __init__(self, transport, tenant: Optional[str] = None) -> None:
        self.transport = transport
        self.tenant = tenant
        self._next_id = 0
        self._pending: Dict[Any, Response] = {}

    @classmethod
    def connect(cls, host: str, port: int, tenant: Optional[str] = None,
                timeout: Optional[float] = None) -> "Client":
        """A TCP client for a running ``repro serve --tcp`` server."""
        return cls(SocketTransport.connect(host, port, timeout=timeout),
                   tenant=tenant)

    @classmethod
    def local(cls, config: Optional[CheckConfig] = None,
              tenant: Optional[str] = None) -> "Client":
        """An in-process client (no server process, no sockets)."""
        return cls(LocalTransport(config), tenant=tenant)

    # -- pipelined primitives ----------------------------------------------

    def submit(self, method: str, **params) -> int:
        """Send one request without waiting; returns its ``id``."""
        spec = spec_for(METHODS, method)  # raises on typos before anything is sent
        self._next_id += 1
        request = Request(method=spec.name, id=self._next_id,
                          params=spec.params(**params),
                          tenant=self.tenant,
                          trace=current_trace_id())
        self.transport.send(request.to_json())
        return self._next_id

    def wait(self, request_id: int) -> Response:
        """The response for ``request_id``, buffering others meanwhile."""
        while request_id not in self._pending:
            response = Response.from_json(self.transport.recv())
            self._pending[response.id] = response
        return self._pending.pop(request_id)

    def request(self, method: str, **params) -> Any:
        """Send, wait and decode into the method's typed payload.

        Error responses raise :class:`ProtocolError`.
        """
        response = self.wait(self.submit(method, **params))
        return spec_for(METHODS, method).payload.from_json(response.raise_for_error())

    # -- convenience methods (one per registry entry) ----------------------

    def hello(self):
        return self.request("hello")

    def check(self, uri: str, text: Optional[str] = None):
        return self.request("check", uri=uri, text=text)

    def update(self, uri: str, text: Optional[str] = None):
        return self.request("update", uri=uri, text=text)

    def diagnostics(self, uri: str):
        return self.request("diagnostics", uri=uri)

    def close_document(self, uri: str):
        return self.request("close", uri=uri)

    def cancel(self, uri: str):
        return self.request("cancel", uri=uri)

    def stats(self):
        return self.request("stats")

    def project_open(self, root: str):
        return self.request("project_open", root=root)

    def project_update(self, uri: str, text: Optional[str] = None):
        return self.request("project_update", uri=uri, text=text)

    def project_diagnostics(self, uri: str):
        return self.request("project_diagnostics", uri=uri)

    def shutdown(self):
        return self.request("shutdown")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
