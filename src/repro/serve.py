"""``repro serve`` — the stdio NDJSON loop (``repro-serve/2`` shim).

The server reads one JSON object per line from its input stream, applies it
to a long-lived :class:`repro.core.workspace.Workspace`, and writes exactly
one JSON response line per request — so a driver (editor plugin, test
harness, ``printf | repro serve`` in CI) can hold a pipe open and get
incremental re-check latency for every edit.

This module is now a thin adapter: decoding, dispatch and payload building
live in :mod:`repro.service` (the typed protocol layer and the multi-tenant
service core), and this shim pins the protocol version to ``repro-serve/2``
over a single ``default`` tenant — recorded v2 transcripts replay
byte-identically, while the same core also powers the asyncio socket
server (``repro serve --tcp``, :mod:`repro.service.server`).

Request shape::

    {"id": 1, "method": "check",  "params": {"uri": "a.rsc", "text": "..."}}
    {"id": 2, "method": "update", "params": {"uri": "a.rsc", "text": "..."}}
    {"id": 3, "method": "diagnostics", "params": {"uri": "a.rsc"}}
    {"id": 4, "method": "close",  "params": {"uri": "a.rsc"}}
    {"id": 5, "method": "shutdown"}

``check`` opens (or replaces) a document; with ``text`` omitted the URI is
read as a file path.  ``update`` requires the document to be open and
re-checks incrementally.  Responses mirror the request ``id``::

    {"id": 1, "ok": true, "result": {"uri": ..., "status": "SAFE", ...}}
    {"id": 9, "ok": false, "error": {"code": "unknown-method", "message": ...}}

Check/update results carry the document verdict plus per-edit timing
deltas: ``time_seconds`` (this check), ``delta_seconds`` (vs. the previous
check of the same URI), ``queries`` (SMT queries issued), ``warm`` and the
``solve_stats`` counters (``declarations_rechecked``/``declarations_reused``
/...).  A malformed line produces an ``id: null`` error response and the
loop continues; ``shutdown`` (or end of input) ends it.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Optional

from repro.core.config import CheckConfig
from repro.core.workspace import Workspace
from repro.service.core import ServiceCore
from repro.service.protocol import METHODS as _REGISTRY, PROTOCOL_V2
from repro.wire import (ProtocolError, method_names, parse_error_response,
                        parse_line)

#: Protocol identifier reported by the ``shutdown`` response.
PROTOCOL = PROTOCOL_V2

#: The methods this shim accepts (the v2 subset of the registry).
METHODS = method_names(_REGISTRY, 2)

#: Backwards-compatible alias: raising :class:`ServerError` from handler
#: code still produces the matching error response.
ServerError = ProtocolError


class Server:
    """The request dispatcher; one instance per ``repro serve`` process.

    A thin v2 facade over :class:`repro.service.core.ServiceCore`: all
    requests run against the single ``default`` tenant, synchronously.
    """

    def __init__(self, config: Optional[CheckConfig] = None,
                 workspace: Optional[Workspace] = None) -> None:
        if workspace is None:
            workspace = Workspace(config or CheckConfig())
        self.core = ServiceCore(workspace=workspace)
        self.config = self.core.config

    # -- state passthroughs (the original Server's public surface) ---------

    @property
    def workspace(self) -> Workspace:
        return self.core.manager.get(self.core.default_tenant).workspace

    @property
    def project(self):
        tenant = self.core.manager.peek(self.core.default_tenant)
        return tenant.project if tenant is not None else None

    @property
    def requests_served(self) -> int:
        return self.core.requests_served

    @property
    def shutting_down(self) -> bool:
        return self.core.shutting_down

    # -- request handling --------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one decoded request object, returning the response object."""
        return self.core.handle_raw(request, version=2).to_json()

    def handle_line(self, line: str) -> Optional[dict]:
        """Serve one raw input line; ``None`` for blank lines."""
        if not line.strip():
            return None
        try:
            request = parse_line(line)
        except ProtocolError as exc:
            return parse_error_response(exc.message).to_json()
        return self.handle(request)


def serve(stdin: Optional[IO[str]] = None, stdout: Optional[IO[str]] = None,
          config: Optional[CheckConfig] = None) -> int:
    """Run the NDJSON loop until ``shutdown`` or end of input."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    server = Server(config)
    for line in stdin:
        response = server.handle_line(line)
        if response is None:
            continue
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        if server.shutting_down:
            break
    return 0
