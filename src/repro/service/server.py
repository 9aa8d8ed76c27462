"""The two ``repro serve`` loops over one :class:`ServiceCore`.

:func:`serve` is the stdio loop: one request line in, one response line
out, in order, on the calling thread.  It speaks the same
``repro-serve/3`` protocol as the TCP server (``tenant`` routing,
``hello``, ``stats`` ...), through the same
:meth:`ServiceCore.handle_raw` dispatch the in-process client uses.

:class:`AsyncCheckServer` is the asyncio TCP server
(``repro serve --tcp``).  One process serves many concurrent clients and
many isolated tenants.  The event loop only parses, schedules and writes;
the CPU-bound checks run on a
:class:`~concurrent.futures.ThreadPoolExecutor`
(``CheckConfig.service.workers`` threads).  Requests are scheduled through
**per-tenant lanes**:

* a lane executes at most one request at a time, so a tenant's workspace is
  never touched concurrently (the isolation the sync core relies on);
* a ``check``/``update`` arriving for a URI that already has one queued
  **supersedes** it — the stale request is answered immediately with a
  ``cancelled`` error; if the stale check is already executing its
  :class:`repro.core.cancel.CancelToken` is fired and the pipeline unwinds
  at its next stage boundary (fixpoint round, SSA/constraint seams),
  leaving the artifact store untouched;
* a lane whose queue is full (``CheckConfig.service.queue_limit``) answers
  new work with a ``backpressure`` error instead of buffering without
  bound.

Lane state is only ever mutated on the event-loop thread (enqueue,
supersede, the ``cancel`` method's hook, completion), so no locks are
needed beyond the thread-safe cancellation token itself.

The line loop and the background-thread host
(:class:`repro.wire.ServerThread`, used by tests and ``repro bench
serve``) live in :mod:`repro.wire`; :func:`run_server` is the blocking
CLI entry point.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Callable, Dict, Optional

from repro.core.cancel import CancelToken
from repro.core.config import CheckConfig
from repro.service.core import ServiceCore
from repro.service.protocol import METHODS, PROTOCOL_V3, CancelPayload
from repro.wire import (ProtocolError, Request, Response, line_sender,
                        parse_error_response, parse_line, read_requests)

#: Methods a later edit of the same URI supersedes.
SUPERSEDABLE = frozenset({"check", "update"})

#: Methods answered inline on the event loop instead of on a tenant lane;
#: they never check a workspace, so they cannot race a check.
INLINE = frozenset({"hello", "stats", "cancel", "shutdown"})


@dataclass
class _Job:
    """One queued request plus how to answer it."""

    request: Request
    respond: Callable  # async (Response) -> None
    token: CancelToken = field(default_factory=CancelToken)


@dataclass
class _Lane:
    """One tenant's serialized request stream."""

    queue: deque = field(default_factory=deque)
    current: Optional[_Job] = None
    task: Optional[asyncio.Task] = None

    @property
    def active(self) -> bool:
        return self.current is not None or bool(self.queue)


class AsyncCheckServer:
    """The asyncio TCP server fronting one :class:`ServiceCore`."""

    #: NDJSON line limit for the stream reader.
    LINE_LIMIT = 16 * 1024 * 1024

    def __init__(self, config: Optional[CheckConfig] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        from concurrent.futures import ThreadPoolExecutor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self.config = config or CheckConfig()
        self.core = ServiceCore(self.config)
        self.core.cancel_hook = self._cancel_uri
        self.core.manager.busy = self._tenant_busy
        self.lanes: Dict[str, _Lane] = {}
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.service.workers,
            thread_name_prefix="repro-check")

    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=self.LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`)."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        await self._drain()

    def request_stop(self) -> None:
        """Stop the server from the event-loop thread."""
        if self._stop is not None:
            self._stop.set()

    async def _drain(self) -> None:
        """Flush queued work as cancelled, finish in-flight checks (their
        clients may still be reading), release the pool."""
        for name, lane in self.lanes.items():
            tenant = self.core.manager.peek(name)
            while lane.queue:
                job = lane.queue.popleft()
                if tenant is not None:
                    tenant.cancelled_queued += 1
                await job.respond(Response.failure(
                    job.request.id, "cancelled", "server shutting down"))
            if lane.task is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await lane.task
        self.executor.shutdown(wait=True)

    # -- connection handling -----------------------------------------------

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        send = line_sender(writer)
        requests = read_requests(reader, send, METHODS,
                                 on_object=self.core.count_request)
        try:
            async with contextlib.aclosing(requests):
                async for request in requests:
                    if request.method in INLINE:
                        await send(self.core.execute(request))
                    else:
                        self._route(request, send)
                    if self.core.shutting_down:
                        self.request_stop()
                        break
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()

    # -- scheduling --------------------------------------------------------

    def _route(self, request: Request, send) -> None:
        """Enqueue one tenant-level request on its lane."""
        name = self.core.tenant_name(request)
        lane = self.lanes.setdefault(name, _Lane())
        if request.method in SUPERSEDABLE and request.uri:
            self._supersede(name, lane, request)
        if len(lane.queue) >= self.config.service.queue_limit:
            asyncio.ensure_future(send(Response.failure(
                request.id, "backpressure",
                f"tenant {name!r} queue is full "
                f"({self.config.service.queue_limit} requests pending)")))
            return
        lane.queue.append(_Job(request=request, respond=send))
        self._sync_depth(name, lane)
        if lane.task is None:
            lane.task = asyncio.ensure_future(self._drain_lane(name, lane))

    def _supersede(self, name: str, lane: _Lane, request: Request) -> None:
        """A newer edit of a URI obsoletes older pending checks of it."""
        reason = f"superseded by request {request.id!r}"
        tenant = self.core.manager.get(name)
        for job in [j for j in lane.queue
                    if j.request.method in SUPERSEDABLE
                    and j.request.uri == request.uri]:
            lane.queue.remove(job)
            tenant.cancelled_queued += 1
            asyncio.ensure_future(job.respond(Response.failure(
                job.request.id, "cancelled", reason)))
        current = lane.current
        if (current is not None and current.request.method in SUPERSEDABLE
                and current.request.uri == request.uri):
            current.token.cancel(reason)

    async def _drain_lane(self, name: str, lane: _Lane) -> None:
        loop = asyncio.get_event_loop()
        while lane.queue:
            job = lane.queue.popleft()
            self._sync_depth(name, lane)
            lane.current = job
            try:
                response = await loop.run_in_executor(
                    self.executor, self.core.execute, job.request, job.token)
            finally:
                lane.current = None
            await job.respond(response)
        lane.task = None

    def _sync_depth(self, name: str, lane: _Lane) -> None:
        tenant = self.core.manager.peek(name)
        if tenant is not None:
            tenant.queue_depth = len(lane.queue)

    def _tenant_busy(self, name: str) -> bool:
        lane = self.lanes.get(name)
        return lane is not None and lane.active

    def _cancel_uri(self, name: str, uri: str) -> CancelPayload:
        """The ``cancel`` method: explicit client-driven cancellation."""
        reason = "cancelled by request"
        lane = self.lanes.get(name)
        if lane is None:
            return CancelPayload(uri=uri, cancelled=False, state="idle")
        stale = [job for job in lane.queue
                 if job.request.method in SUPERSEDABLE
                 and job.request.uri == uri]
        if stale:
            tenant = self.core.manager.get(name)
            for job in stale:
                lane.queue.remove(job)
                tenant.cancelled_queued += 1
                asyncio.ensure_future(job.respond(Response.failure(
                    job.request.id, "cancelled", reason)))
            self._sync_depth(name, lane)
            return CancelPayload(uri=uri, cancelled=True, state="queued")
        current = lane.current
        if (current is not None and current.request.method in SUPERSEDABLE
                and current.request.uri == uri):
            current.token.cancel(reason)
            return CancelPayload(uri=uri, cancelled=True, state="inflight")
        return CancelPayload(uri=uri, cancelled=False, state="idle")


def serve(stdin: Optional[IO[str]] = None, stdout: Optional[IO[str]] = None,
          config: Optional[CheckConfig] = None) -> int:
    """Blocking entry point for stdio ``repro serve``: answer each request
    line until ``shutdown`` or end of input."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    core = ServiceCore(config)
    for line in stdin:
        if not line.strip():
            continue
        try:
            response = core.handle_raw(parse_line(line))
        except ProtocolError as exc:
            response = parse_error_response(exc.message)
        stdout.write(json.dumps(response.to_json()) + "\n")
        stdout.flush()
        if core.shutting_down:
            break
    return 0


def run_server(config: Optional[CheckConfig] = None,
               host: str = "127.0.0.1", port: int = 0) -> int:
    """Blocking entry point for ``repro serve --tcp``: serve until
    shutdown, first printing the bound address as one JSON line."""
    server = AsyncCheckServer(config, host=host, port=port)

    async def main() -> None:
        await server.start()
        print(json.dumps({"listening": {"host": server.host,
                                        "port": server.port},
                          "protocol": PROTOCOL_V3}), flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0
