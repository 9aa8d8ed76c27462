"""The multi-tenant check service: isolation, eviction, cancellation.

The contract under test, from the serve-protocol redesign:

* two tenants never observe each other's diagnostics (each has its own
  workspace, solver and store handle);
* past ``service.max_tenants`` the least-recently-used idle tenant is
  evicted and comes back cold;
* a cancelled check unwinds at a stage boundary without writing to the
  artifact store and without replacing the document's last good verdict;
* the async server's lanes supersede stale queued edits deterministically
  and answer over-full queues with ``backpressure``;
* the stdio loop speaks the same ``repro-serve/3`` protocol as TCP, down
  to key order.
"""

import asyncio
import io
import json
import sys
import threading

import pytest

from repro.client import Client
from repro.core.cancel import CancelToken, CheckCancelled
from repro.core.config import CheckConfig, ServiceOptions
from repro.core.workspace import Workspace
from repro.obs.metrics import percentile
from repro.obs.trace import tracer
from repro.service.core import ServiceCore
from repro.service.protocol import METHODS
from repro.service.server import AsyncCheckServer, serve
from repro.wire import ServerThread, decode_request, method_names

SAFE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

UNSAFE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""

EDIT = SAFE.replace("return a[i];", "var x = a[i]; return x;")


def service_config(**service):
    return CheckConfig(service=ServiceOptions(**service))


class CountdownToken(CancelToken):
    """Fires after a fixed number of pipeline checkpoints — a deterministic
    stand-in for a superseding edit arriving mid-check."""

    def __init__(self, fire_after: int) -> None:
        super().__init__()
        self.remaining = fire_after

    def checkpoint(self) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            self.cancel("countdown expired")
        super().checkpoint()


class TestTenantIsolation:
    def test_tenants_never_observe_each_others_diagnostics(self):
        core = ServiceCore(CheckConfig())
        alice = core.handle_raw({"id": 1, "method": "check",
                                 "tenant": "alice",
                                 "params": {"uri": "a.rsc", "text": SAFE}})
        bob = core.handle_raw({"id": 2, "method": "check", "tenant": "bob",
                               "params": {"uri": "a.rsc", "text": UNSAFE}})
        assert alice.result["status"] == "SAFE"
        assert bob.result["status"] == "UNSAFE"

        # same URI, opposite verdicts, neither bleeds into the other
        alice_diag = core.handle_raw({"id": 3, "method": "diagnostics",
                                      "tenant": "alice",
                                      "params": {"uri": "a.rsc"}})
        bob_diag = core.handle_raw({"id": 4, "method": "diagnostics",
                                    "tenant": "bob",
                                    "params": {"uri": "a.rsc"}})
        assert alice_diag.result["diagnostics"] == []
        codes = [d["code"] for d in bob_diag.result["diagnostics"]]
        assert "RSC-BND-001" in codes

        # ...and the default tenant never saw the document at all
        default = core.handle_raw({"id": 5, "method": "diagnostics",
                                   "params": {"uri": "a.rsc"}})
        assert default.error_code == "not-open"

    def test_tenant_workspaces_are_distinct_objects(self):
        core = ServiceCore(CheckConfig())
        ws = {name: core.manager.get(name).workspace
              for name in ("alice", "bob", "default")}
        assert len({id(w) for w in ws.values()}) == 3

    def test_stats_reports_each_tenant_separately(self):
        core = ServiceCore(CheckConfig())
        core.handle_raw({"id": 1, "method": "check", "tenant": "alice",
                         "params": {"uri": "a.rsc", "text": SAFE}})
        core.handle_raw({"id": 2, "method": "stats"})
        payload = core.stats()
        assert payload.tenants["alice"]["checks_run"] == 1
        assert payload.tenants["alice"]["open_documents"] == 1
        assert payload.tenants["alice"]["latency"]["count"] == 1
        assert payload.tenants["alice"]["latency"]["p50_ms"] > 0
        assert payload.tenants["alice"]["solver"]["queries"] > 0
        assert payload.tenants["alice"]["store"] is None  # no store_path
        assert payload.totals["requests_served"] == 2
        assert payload.totals["checks_run"] == 1


class TestLruEviction:
    def test_idle_tenants_evicted_past_the_cap(self):
        core = ServiceCore(service_config(max_tenants=2))
        for name in ("t1", "t2", "t3"):
            response = core.handle_raw(
                {"id": 1, "method": "check", "tenant": name,
                 "params": {"uri": "a.rsc", "text": SAFE}})
            assert response.ok
        assert list(core.manager.tenants) == ["t2", "t3"]
        assert core.manager.tenants_evicted == 1
        assert core.manager.peek("t1") is None

    def test_eviction_order_is_least_recently_used(self):
        core = ServiceCore(service_config(max_tenants=2))
        core.manager.get("t1")
        core.manager.get("t2")
        core.manager.get("t1")  # touch: t2 becomes the eviction candidate
        core.manager.get("t3")
        assert list(core.manager.tenants) == ["t1", "t3"]

    def test_evicted_tenant_restarts_cold(self):
        core = ServiceCore(service_config(max_tenants=1))
        core.handle_raw({"id": 1, "method": "check", "tenant": "t1",
                         "params": {"uri": "a.rsc", "text": SAFE}})
        core.handle_raw({"id": 2, "method": "check", "tenant": "t2",
                         "params": {"uri": "a.rsc", "text": SAFE}})
        # t1 was evicted; coming back it has no documents and no history
        revived = core.handle_raw({"id": 3, "method": "diagnostics",
                                   "tenant": "t1",
                                   "params": {"uri": "a.rsc"}})
        assert revived.error_code == "not-open"
        assert core.manager.get("t1").workspace.checks_run == 0
        assert core.manager.tenants_evicted == 2  # t1 then t2

    def test_busy_tenants_are_skipped(self):
        core = ServiceCore(service_config(max_tenants=1))
        core.manager.busy = lambda name: name == "t1"
        core.manager.get("t1")
        core.manager.get("t2")
        # t1 has in-flight work, so the over-cap state is tolerated
        assert list(core.manager.tenants) == ["t1", "t2"]
        assert core.manager.tenants_evicted == 0


def check_as(core, tenant, request_id=1, token=None):
    request = decode_request(METHODS, {
        "id": request_id, "method": "check", "tenant": tenant,
        "params": {"uri": "a.rsc", "text": SAFE}})
    return core.execute(request, token)


class TestLifetimeTotals:
    """``stats`` totals and ``shutdown`` count every tenant the server has
    had, evicted ones included, so a lifetime counter never goes down."""

    def test_totals_keep_the_counters_of_evicted_tenants(self):
        core = ServiceCore(service_config(max_tenants=1))
        assert check_as(core, "a", token=CountdownToken(1)).error_code == \
            "cancelled"
        assert check_as(core, "a", 2).ok
        assert check_as(core, "b", 3).ok  # evicts a
        totals = core.stats().totals
        assert totals["tenants_evicted"] == 1
        assert totals["checks_run"] == 2
        assert totals["cancelled_inflight"] == 1
        assert core.shutdown().checks_run == 2

    def test_shutdown_sums_the_store_of_every_tenant(self, tmp_path):
        core = ServiceCore(CheckConfig(
            store_path=str(tmp_path / "store"),
            service=ServiceOptions(max_tenants=1)))
        assert check_as(core, "a").ok  # cold: populates the store
        assert check_as(core, "b", 2).ok  # replays a's entries; evicts a
        assert core.manager.tenants_evicted == 1
        assert core.manager.peek("default") is None
        store = core.shutdown().store
        assert store is not None
        assert store["writes"] > 0  # a's, though a is gone
        assert store["hits"] > 0  # b's

    def test_concurrent_tenants_and_totals_lose_no_tenant(self):
        """Worker threads create and evict tenants while another thread
        sums the totals, as under the TCP server."""
        core = ServiceCore(service_config(max_tenants=2))
        manager = core.manager
        workers, per_worker = 4, 500
        errors = []

        def run(task):
            try:
                task()
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def create(worker):
            for k in range(per_worker):
                manager.get(f"w{worker}-{k}")

        def read():
            for _ in range(workers * per_worker):
                manager.totals()
                core.stats()

        threads = [threading.Thread(target=run, args=(lambda w=w: create(w),))
                   for w in range(workers)]
        threads.append(threading.Thread(target=run, args=(read,)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(manager.tenants) == 2
        assert manager.tenants_evicted + 2 == workers * per_worker


class TestCancellation:
    def test_cancelled_check_never_writes_to_the_store(self, tmp_path):
        config = CheckConfig(store_path=str(tmp_path / "store"))
        workspace = Workspace(config)
        workspace.open("a.rsc", SAFE)
        entries_before = workspace.store.stats().total_entries
        writes_before = workspace.store.writes
        assert entries_before > 0  # the successful check persisted artifacts

        with pytest.raises(CheckCancelled):
            workspace.update("a.rsc", EDIT, token=CountdownToken(3))

        assert workspace.store.stats().total_entries == entries_before
        assert workspace.store.writes == writes_before
        assert workspace.checks_cancelled == 1
        # the last good verdict stays current
        assert workspace.result("a.rsc").ok
        assert "a.rsc" in workspace.documents()

    def test_core_maps_cancellation_to_a_cancelled_response(self):
        core = ServiceCore(CheckConfig())
        request = decode_request(METHODS, {
            "id": 1, "method": "check",
            "params": {"uri": "a.rsc", "text": SAFE}})
        response = core.execute(request, CountdownToken(1))
        assert not response.ok
        assert response.error_code == "cancelled"
        tenant = core.manager.peek("default")
        assert tenant.cancelled_inflight == 1
        assert core.stats().totals["cancelled_inflight"] == 1
        # cancelled requests never enter the latency window
        assert tenant.stats_entry()["latency"]["count"] == 0


def run_lane_scenario(coro):
    """Drive an :class:`AsyncCheckServer`'s lanes directly on a private
    event loop — no sockets, so enqueue/supersede order is deterministic."""
    return asyncio.run(coro)


def make_request(request_id, method, uri, text=None):
    params = {"uri": uri}
    if text is not None:
        params["text"] = text
    return decode_request(METHODS, {"id": request_id, "method": method,
                                    "params": params})


class TestLaneScheduling:
    def test_queued_edit_superseded_by_newer_edit(self):
        async def scenario():
            server = AsyncCheckServer(CheckConfig())
            responses = []

            async def send(response):
                responses.append(response)

            server._route(make_request(0, "check", "a.rsc", SAFE), send)
            await server.lanes["default"].task
            # Enqueue two updates back-to-back before the lane task gets a
            # chance to run: the second supersedes the first synchronously,
            # while it is still queued.
            server._route(make_request(1, "update", "a.rsc", EDIT), send)
            server._route(make_request(2, "update", "a.rsc", SAFE), send)
            await server.lanes["default"].task
            await asyncio.sleep(0)  # flush the cancelled-response task
            server.executor.shutdown(wait=True)
            return server, responses

        server, responses = run_lane_scenario(scenario())
        by_id = {r.id: r for r in responses}
        assert by_id[0].ok
        assert by_id[1].error_code == "cancelled"
        assert "superseded by request 2" in by_id[1].error_message
        assert by_id[2].ok and by_id[2].result["status"] == "SAFE"
        tenant = server.core.manager.peek("default")
        assert tenant.cancelled_queued == 1
        assert tenant.cancelled_inflight == 0

    def test_inflight_edit_cancelled_by_superseding_edit(self):
        async def scenario():
            server = AsyncCheckServer(CheckConfig())
            started, release = threading.Event(), threading.Event()
            real_execute = server.core.execute

            def gated(request, token=None):
                if request.method == "update":
                    started.set()
                    release.wait(timeout=30)
                return real_execute(request, token)

            server.core.execute = gated
            responses = []

            async def send(response):
                responses.append(response)

            server._route(make_request(0, "check", "a.rsc", SAFE), send)
            await server.lanes["default"].task
            server._route(make_request(1, "update", "a.rsc", EDIT), send)
            while not started.is_set():  # request 1 is now *executing*
                await asyncio.sleep(0.005)
            server._route(make_request(2, "update", "a.rsc", SAFE), send)
            release.set()
            await server.lanes["default"].task
            server.executor.shutdown(wait=True)
            return server, responses

        server, responses = run_lane_scenario(scenario())
        by_id = {r.id: r for r in responses}
        assert by_id[1].error_code == "cancelled"
        assert "superseded by request 2" in by_id[1].error_message
        assert by_id[2].ok
        tenant = server.core.manager.peek("default")
        assert tenant.cancelled_inflight == 1
        assert tenant.workspace.checks_cancelled == 1

    def test_full_queue_answers_backpressure(self):
        async def scenario():
            server = AsyncCheckServer(service_config(queue_limit=1))
            responses = []

            async def send(response):
                responses.append(response)

            server._route(make_request(1, "check", "a.rsc", SAFE), send)
            server._route(make_request(2, "check", "b.rsc", SAFE), send)
            await asyncio.sleep(0)  # flush the backpressure response task
            await server.lanes["default"].task
            server.executor.shutdown(wait=True)
            return responses

        responses = run_lane_scenario(scenario())
        by_id = {r.id: r for r in responses}
        assert by_id[2].error_code == "backpressure"
        assert "queue is full" in by_id[2].error_message
        assert by_id[1].ok  # the queued request still completed


class TestSocketServer:
    def test_two_tenants_over_tcp_stay_isolated(self):
        with ServerThread(AsyncCheckServer(CheckConfig())) as st:
            with Client.connect(st.host, st.port, tenant="alice") as alice, \
                 Client.connect(st.host, st.port, tenant="bob") as bob:
                assert alice.check("a.rsc", SAFE).status == "SAFE"
                assert bob.check("a.rsc", UNSAFE).status == "UNSAFE"
                assert alice.diagnostics("a.rsc").diagnostics == []
                assert bob.diagnostics("a.rsc").diagnostics != []
                stats = alice.stats()
                assert set(stats.tenants) == {"alice", "bob"}
                assert stats.totals["tenants"] == 2
                hello = bob.hello()
                assert hello.protocol == "repro-serve/3"
                assert tuple(hello.methods) == method_names(METHODS)
                assert hello.tenant == "bob"
                assert alice.cancel("a.rsc").state == "idle"
                alice.shutdown()

    def test_pipelined_superseding_edit_cancels_over_tcp(self):
        # Forty declarations keep the first update busy for long enough
        # that the superseding edit (already sitting in the socket buffer)
        # is routed while it is queued or in flight — never after.  The
        # probe must change every *body* (a comment-only edit would reuse
        # all declarations and finish before the supersession lands).
        big = "\n".join(
            f"spec f{i} :: (x: number) => number;\n"
            f"function f{i}(x) {{ return x; }}" for i in range(40))
        probe = big.replace("return x;", "var y = x; return y;")
        with ServerThread(AsyncCheckServer(CheckConfig())) as st:
            with Client.connect(st.host, st.port, timeout=120) as client:
                assert client.check("big.rsc", big).ok
                first = client.submit("update", uri="big.rsc", text=probe)
                second = client.submit("update", uri="big.rsc", text=big)
                stale = client.wait(first)
                fresh = client.wait(second)
                assert stale.error_code == "cancelled"
                assert fresh.ok
                totals = client.stats().totals
                assert (totals["cancelled_queued"]
                        + totals["cancelled_inflight"]) >= 1
                client.shutdown()


class TestV2ShimEquivalence:
    """Stdio ``repro serve`` speaks ``repro-serve/3``, key order included."""

    # One NDJSON exchange over the stdio loop, timing fields normalized to
    # null (they vary run to run).
    TRANSCRIPT = [
        ({"id": 1, "method": "hello"},
         {"id": 1, "ok": True, "result": {
             "protocol": "repro-serve/3",
             "methods": ["check", "update", "diagnostics", "close",
                         "shutdown", "project_open", "project_update",
                         "project_diagnostics", "hello", "cancel", "stats"],
             "tenant": "default"}}),
        ({"id": 2, "method": "check", "tenant": "alice",
          "params": {"uri": "a.rsc", "text": SAFE}},
         {"id": 2, "ok": True, "result": {
             "uri": "a.rsc", "status": "SAFE", "ok": True,
             "diagnostics": [], "time_seconds": None,
             "delta_seconds": None, "queries": None, "warm": False,
             "solve_stats": None, "timings": None}}),
        # the document lives in alice's workspace, not the default one
        ({"id": 3, "method": "diagnostics", "params": {"uri": "a.rsc"}},
         {"id": 3, "ok": False, "error": {
             "code": "not-open",
             "message": "document not open: 'a.rsc'"}}),
        ({"id": 4, "method": "check", "params": {"uri": 7}},
         {"id": 4, "ok": False, "error": {
             "code": "bad-params",
             "message": "params.uri must be a string"}}),
        ({"id": 5, "method": "solve"},
         {"id": 5, "ok": False, "error": {
             "code": "unknown-method",
             "message": "unknown method 'solve' (expected one of check, "
                        "update, diagnostics, close, shutdown, "
                        "project_open, project_update, "
                        "project_diagnostics, hello, cancel, stats)"}}),
        ({"id": 6, "method": "close", "tenant": "alice",
          "params": {"uri": "a.rsc"}},
         {"id": 6, "ok": True,
          "result": {"uri": "a.rsc", "closed": True}}),
        ({"id": 7, "method": "stats"},
         {"id": 7, "ok": True, "result": {
             "protocol": "repro-serve/3", "tenants": None, "totals": {
                 "requests_served": 7, "checks_run": 1, "tenants": 2,
                 "tenants_evicted": 0, "cancelled_queued": 0,
                 "cancelled_inflight": 0}}}),
        ({"id": 8, "method": "shutdown"},
         {"id": 8, "ok": True, "result": {
             "shutdown": True, "protocol": "repro-serve/3",
             "requests_served": 8, "checks_run": 1, "store": None}}),
    ]

    #: result keys whose values vary run to run; shape still asserted
    VOLATILE = ("time_seconds", "queries", "solve_stats", "timings",
                "tenants")

    def normalize(self, obj):
        result = obj.get("result")
        if isinstance(result, dict):
            for key in self.VOLATILE:
                if result.get(key) is not None:
                    result[key] = None
        return obj

    def test_recorded_transcript_replays_identically(self):
        stdin = io.StringIO("".join(json.dumps(request) + "\n"
                                    for request, _ in self.TRANSCRIPT))
        stdout = io.StringIO()
        assert serve(stdin, stdout, CheckConfig()) == 0
        replayed = [json.loads(line)
                    for line in stdout.getvalue().splitlines()]
        # the per-tenant stats entries vary in their latency figures;
        # which tenants exist does not
        assert list(replayed[6]["result"]["tenants"]) == ["default", "alice"]
        expected = [response for _, response in self.TRANSCRIPT]
        assert [self.normalize(r) for r in replayed] == expected
        # byte-level: key order within each line is part of the contract
        for raw, want in zip(replayed, expected):
            assert list(raw) == list(want)
            assert list(raw.get("result") or {}) == \
                list(want.get("result") or {})


class TestServiceSpans:
    """Every transport goes through ``ServiceCore.execute``, which records
    exactly one ``service.<method>`` span per request."""

    @pytest.fixture(autouse=True)
    def _traced(self):
        tracer().reset()
        tracer().enable()
        yield
        tracer().reset()

    @staticmethod
    def service_spans():
        return [event for event in tracer().drain()["events"]
                if event["cat"] == "service"]

    def test_stdio_serve_records_a_span_per_request(self):
        requests = [
            {"id": 1, "method": "hello"},
            {"id": 2, "method": "check", "tenant": "alice", "trace": "cafe",
             "params": {"uri": "a.rsc", "text": SAFE}},
        ]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        assert serve(stdin, io.StringIO(), CheckConfig()) == 0
        spans = self.service_spans()
        assert [e["name"] for e in spans] == ["service.hello",
                                              "service.check"]
        assert spans[0]["args"] == {"tenant": "default"}
        assert spans[1]["args"] == {"tenant": "alice", "trace": "cafe"}

    def test_tcp_lane_job_records_exactly_one_span(self):
        async def scenario():
            server = AsyncCheckServer(CheckConfig())
            responses = []

            async def send(response):
                responses.append(response)

            server._route(make_request(0, "check", "a.rsc", SAFE), send)
            await server.lanes["default"].task
            server.executor.shutdown(wait=True)
            return responses

        responses = run_lane_scenario(scenario())
        assert responses[0].ok
        spans = self.service_spans()
        assert [e["name"] for e in spans] == ["service.check"]
        assert spans[0]["args"] == {"tenant": "default"}

    def test_tcp_inline_methods_record_spans(self):
        with ServerThread(AsyncCheckServer(CheckConfig())) as st:
            with Client.connect(st.host, st.port, tenant="bob") as client:
                client.hello()
                client.stats()
                client.shutdown()
        names = [e["name"] for e in self.service_spans()]
        assert names == ["service.hello", "service.stats",
                         "service.shutdown"]


class TestPercentile:
    def test_nearest_rank(self):
        window = [float(v) for v in range(1, 101)]
        assert percentile(window, 50.0) == 50.0
        assert percentile(window, 99.0) == 99.0
        assert percentile([], 99.0) == 0.0
        assert percentile([7.0], 50.0) == 7.0
