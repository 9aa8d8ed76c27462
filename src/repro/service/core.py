"""The synchronous service core: tenants, dispatch, counters.

A :class:`TenantSession` is one tenant's isolated state — its own
:class:`repro.core.workspace.Workspace` (documents, solver, store handle),
an optional :class:`repro.project.workspace.ProjectWorkspace` whose modules
are documents of that same workspace, per-URI timing
history and the counters the ``stats`` method reports: the service
counters, a bounded latency window, and the typed solver and store stats
as they are (``SolverStats.to_dict()``, ``ArtifactStore.counters()``).
Tenants never share mutable state, so two tenants can never observe each
other's diagnostics.

A :class:`SessionManager` holds many tenants keyed by name, LRU-ordered;
past ``CheckConfig.service.max_tenants`` the least-recently-used *idle*
tenant is evicted (its documents close, its solver is dropped — the next
request under that name starts cold).  An evicted tenant's lifetime
counters are folded into the manager's totals first, so a lifetime total
never goes down.

A :class:`ServiceCore` is the typed dispatcher every transport shares:
the stdio loop, the asyncio socket server (both in
:mod:`repro.service.server`) and the in-process client decode with
:func:`repro.wire.decode_request` and execute here, so the business logic
has exactly one code path.  A request without a ``tenant`` field runs on
the :data:`DEFAULT_TENANT`.  The core itself is synchronous and
single-threaded per tenant — concurrency (queues, supersession, executors)
lives in the async server, which guarantees at most one request per tenant
is executing at a time.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional

from repro.core.cancel import CancelToken, CheckCancelled
from repro.core.config import CheckConfig
from repro.core.result import CheckResult
from repro.core.workspace import Workspace
from repro.obs.metrics import percentile
from repro.obs.trace import span as trace_span
from repro.service.protocol import (METHODS, CancelPayload, CheckPayload,
                                    ClosePayload, DiagnosticsPayload,
                                    HelloPayload, ProjectBuildPayload,
                                    ProjectUpdatePayload, ShutdownPayload,
                                    StatsPayload)
from repro.wire import (ProtocolError, Request, Response, decode_request,
                        method_names)

#: The tenant of requests that name none.
DEFAULT_TENANT = "default"

#: Methods whose wall-clock enters the tenant's latency window.
TIMED_METHODS = frozenset(
    {"check", "update", "project_open", "project_update"})


class TenantSession:
    """One tenant's isolated workspace, project and counters."""

    def __init__(self, name: str, config: CheckConfig) -> None:
        self.name = name
        self.config = config
        self.workspace = Workspace(config)
        self.project = None  # lazily created by project_open
        self.requests = 0
        self.cancelled_queued = 0
        self.cancelled_inflight = 0
        #: maintained by the async server's lane; 0 on the stdio loop
        self.queue_depth = 0
        #: the ``stats`` latency window: the most recent timed requests
        self.latencies_ms: "deque[float]" = deque(
            maxlen=self.config.service.latency_window)
        self._last_time: Dict[str, float] = {}

    # -- document methods --------------------------------------------------

    def check(self, params, token: Optional[CancelToken] = None
              ) -> CheckPayload:
        result = self.workspace.open(params.uri, params.text, token=token)
        return self._check_payload(params.uri, result)

    def update(self, params, token: Optional[CancelToken] = None
               ) -> CheckPayload:
        if params.uri not in self.workspace.documents():
            raise ProtocolError("not-open",
                                f"document not open: {params.uri!r}")
        result = self.workspace.update(params.uri, params.text, token=token)
        return self._check_payload(params.uri, result)

    def diagnostics(self, params, token=None) -> DiagnosticsPayload:
        try:
            result = self.workspace.result(params.uri)
        except KeyError:
            raise ProtocolError("not-open",
                                f"document not open: {params.uri!r}")
        return self._verdict_payload(params.uri, result)

    def close(self, params, token=None) -> ClosePayload:
        try:
            self.workspace.close(params.uri)
        except KeyError:
            raise ProtocolError("not-open",
                                f"document not open: {params.uri!r}")
        self._last_time.pop(params.uri, None)
        return ClosePayload(uri=params.uri, closed=True)

    # -- project methods ---------------------------------------------------

    def project_open(self, params, token: Optional[CancelToken] = None
                     ) -> ProjectBuildPayload:
        import pathlib

        from repro.project.workspace import ProjectWorkspace
        if not pathlib.Path(params.root).is_dir():
            raise ProtocolError("io-error",
                                f"not a directory: {params.root!r}")
        # The project's modules are documents of the tenant's workspace:
        # one solver and one store serve the tenant.
        project = ProjectWorkspace(root=params.root,
                                   workspace=self.workspace)
        if self.project is not None:
            self.project.close()
        self.project = project
        result = project.check()
        return ProjectBuildPayload(
            status="SAFE" if result.ok else "UNSAFE", ok=result.ok,
            num_modules=result.num_modules,
            ranks=dict(sorted(result.ranks.items())),
            cyclic=list(result.cyclic),
            modules=[self._verdict_payload(r.filename, r).to_json()
                     for r in result.results])

    def project_update(self, params, token: Optional[CancelToken] = None
                       ) -> ProjectUpdatePayload:
        import pathlib
        project = self._require_project()
        # The library's update() deliberately adds unknown paths as new
        # modules; over the protocol that would turn a typo'd or relative
        # URI into a phantom module, so membership is checked first.
        if str(pathlib.Path(params.uri).resolve()) not in project.modules():
            raise ProtocolError("not-open",
                                f"module not in the project: {params.uri!r}")
        update = project.update(params.uri, params.text, token=token)
        return ProjectUpdatePayload(
            path=update.path, rechecked=list(update.rechecked),
            reused=list(update.reused),
            summary_changed=update.summary_changed, ok=update.ok,
            queries=update.queries,
            modules=[self._verdict_payload(path,
                                           update.results[path]).to_json()
                     for path in update.rechecked])

    def project_diagnostics(self, params, token=None) -> DiagnosticsPayload:
        project = self._require_project()
        try:
            result = project.result(params.uri)
        except KeyError:
            raise ProtocolError("not-open", f"module not in the project: "
                                            f"{params.uri!r}")
        return self._verdict_payload(result.filename, result)

    def _require_project(self):
        if self.project is None:
            raise ProtocolError("not-open",
                                "no project open (send project_open first)")
        return self.project

    # -- payload helpers ---------------------------------------------------

    @staticmethod
    def _verdict_payload(uri: str, result: CheckResult
                         ) -> DiagnosticsPayload:
        """A document's or a module's current verdict."""
        return DiagnosticsPayload(
            uri=uri, status=result.status, ok=result.ok,
            diagnostics=[d.to_dict() for d in result.diagnostics])

    def _check_payload(self, uri: str, result: CheckResult) -> CheckPayload:
        previous = self._last_time.get(uri)
        self._last_time[uri] = result.time_seconds
        solve = result.solve_stats
        return CheckPayload(
            uri=uri, status=result.status, ok=result.ok,
            diagnostics=[d.to_dict() for d in result.diagnostics],
            time_seconds=result.time_seconds,
            delta_seconds=(result.time_seconds - previous
                           if previous is not None else None),
            queries=result.stats.queries if result.stats else 0,
            warm=bool(solve and solve.warm_starts),
            solve_stats=solve.to_dict() if solve else None,
            timings=(result.timings.to_dict()
                     if result.timings is not None else None))

    # -- counters ----------------------------------------------------------

    @property
    def checks_cancelled(self) -> int:
        return self.cancelled_queued + self.cancelled_inflight

    def counters(self) -> Counter:
        """The lifetime counters the totals add up, the store's traffic
        under ``store.<name>`` when this tenant has a store."""
        counts = Counter(checks_run=self.workspace.checks_run,
                         cancelled_queued=self.cancelled_queued,
                         cancelled_inflight=self.cancelled_inflight)
        store = self.workspace.store
        if store is not None:
            for key, value in store.counters().items():
                counts[f"store.{key}"] = value
        return counts

    def stats_entry(self) -> dict:
        window = self.latencies_ms
        store = self.workspace.store
        return {
            "open_documents": len(self.workspace.documents()),
            "checks_run": self.workspace.checks_run,
            "requests": self.requests,
            "queue_depth": self.queue_depth,
            "cancelled_queued": self.cancelled_queued,
            "cancelled_inflight": self.cancelled_inflight,
            "latency": {
                "count": len(window),
                "p50_ms": percentile(window, 50.0),
                "p90_ms": percentile(window, 90.0),
                "p99_ms": percentile(window, 99.0),
            },
            "solver": self.workspace.solver.stats.to_dict(),
            "store": store.counters() if store is not None else None,
        }


class SessionManager:
    """Tenant sessions keyed by name, LRU-evicted past the configured cap."""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.tenants: "OrderedDict[str, TenantSession]" = OrderedDict()
        self.tenants_evicted = 0
        #: the summed :meth:`TenantSession.counters` of evicted tenants
        self.retired: Counter = Counter()
        #: guards ``tenants`` and ``retired``: the async server's worker
        #: threads create and evict tenants while its event loop sums them
        self._lock = threading.Lock()
        #: overridden by the async server so an executing tenant (queued or
        #: in-flight work) is never evicted out from under its own check
        self.busy: Callable[[str], bool] = lambda name: False

    def get(self, name: str) -> TenantSession:
        """The named tenant, created on first use and LRU-touched."""
        with self._lock:
            session = self.tenants.get(name)
            if session is None:
                session = TenantSession(name, self.config)
                self.tenants[name] = session
            self.tenants.move_to_end(name)
            self._evict(keep=name)
        return session

    def peek(self, name: str) -> Optional[TenantSession]:
        """The named tenant without creating or LRU-touching it."""
        return self.tenants.get(name)

    def _evict(self, keep: str) -> None:
        limit = self.config.service.max_tenants
        if len(self.tenants) <= limit:
            return
        for candidate in list(self.tenants):  # oldest first
            if len(self.tenants) <= limit:
                break
            if candidate == keep or self.busy(candidate):
                continue
            self.retired.update(self.tenants.pop(candidate).counters())
            self.tenants_evicted += 1

    def live(self) -> List[TenantSession]:
        """The live tenants, least recently used first."""
        with self._lock:
            return list(self.tenants.values())

    def totals(self) -> Counter:
        """Every lifetime counter, summed over live and evicted tenants."""
        with self._lock:
            totals = Counter(self.retired)
            for session in self.tenants.values():
                totals.update(session.counters())
        return totals


class ServiceCore:
    """The typed dispatcher shared by every transport."""

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.config = config or CheckConfig()
        self.manager = SessionManager(self.config)
        self.requests_served = 0
        self.shutting_down = False
        #: installed by the async server: (tenant, uri) -> CancelPayload
        self.cancel_hook: Optional[Callable[[str, str], CancelPayload]] = None

    # -- entry points ------------------------------------------------------

    def count_request(self) -> None:
        """Every received request object counts, even one that fails to
        decode."""
        self.requests_served += 1

    def handle_raw(self, obj: Any) -> Response:
        """Count, decode and execute one request object."""
        self.count_request()
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            request = decode_request(METHODS, obj)
        except ProtocolError as exc:
            return Response.failure(request_id, exc.code, exc.message)
        return self.execute(request)

    def execute(self, request: Request,
                token: Optional[CancelToken] = None) -> Response:
        """Execute one decoded (and already counted) request.

        Every transport comes through here, so every request records one
        ``service.<method>`` span carrying its tenant (and the client's
        trace id, when it sent one)."""
        extra = {"trace": request.trace} if request.trace else {}
        with trace_span(f"service.{request.method}", "service",
                        tenant=self.tenant_name(request), **extra):
            try:
                return Response.success(request.id,
                                        self._dispatch(request, token))
            except ProtocolError as exc:
                return Response.failure(request.id, exc.code, exc.message)
            except CheckCancelled as exc:
                return Response.failure(request.id, "cancelled", str(exc))
            except (OSError, UnicodeDecodeError) as exc:
                # An undecodable file is as unreadable as a missing one.
                return Response.failure(request.id, "io-error", str(exc))
            except Exception as exc:  # noqa: BLE001 — one request must never
                # take down the loop; the contract is one response per line.
                return Response.failure(request.id, "internal-error",
                                        f"{type(exc).__name__}: {exc}")

    # -- dispatch ----------------------------------------------------------

    def tenant_name(self, request: Request) -> str:
        return request.tenant or DEFAULT_TENANT

    def _dispatch(self, request: Request, token: Optional[CancelToken]):
        method = request.method
        if method == "hello":
            return HelloPayload(methods=list(method_names(METHODS)),
                                tenant=self.tenant_name(request))
        if method == "stats":
            return self.stats()
        if method == "shutdown":
            return self.shutdown()
        if method == "cancel":
            return self.cancel(self.tenant_name(request), request.params.uri)
        tenant = self.manager.get(self.tenant_name(request))
        tenant.requests += 1
        handler = getattr(tenant, method)
        start = time.perf_counter()
        try:
            payload = handler(request.params, token)
        except CheckCancelled:
            tenant.cancelled_inflight += 1
            raise
        if method in TIMED_METHODS:
            tenant.latencies_ms.append(
                (time.perf_counter() - start) * 1000.0)
        return payload

    # -- service-level methods ---------------------------------------------

    def cancel(self, tenant_name: str, uri: str) -> CancelPayload:
        if self.cancel_hook is not None:
            return self.cancel_hook(tenant_name, uri)
        # The synchronous core runs one request at a time; there is never
        # anything in flight to cancel by the time a cancel is dispatched.
        return CancelPayload(uri=uri, cancelled=False, state="idle")

    def stats(self) -> StatsPayload:
        tenants = {session.name: session.stats_entry()
                   for session in self.manager.live()}
        totals = self.manager.totals()
        return StatsPayload(
            tenants=tenants,
            totals={
                "requests_served": self.requests_served,
                "checks_run": totals["checks_run"],
                "tenants": len(tenants),
                "tenants_evicted": self.manager.tenants_evicted,
                "cancelled_queued": totals["cancelled_queued"],
                "cancelled_inflight": totals["cancelled_inflight"],
            })

    def shutdown(self) -> ShutdownPayload:
        """Stop after responding; ``store`` is the traffic of every
        tenant's store (``None`` when no tenant had one)."""
        self.shutting_down = True
        totals = self.manager.totals()
        store = {key[len("store."):]: value for key, value in totals.items()
                 if key.startswith("store.")}
        return ShutdownPayload(
            shutdown=True, requests_served=self.requests_served,
            checks_run=totals["checks_run"], store=store or None)
