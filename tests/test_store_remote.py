"""Tests for the fail-open networked backends: backoff determinism, the
circuit breaker, ``remote://`` degradation (a dead server can slow a check
but never break it), the tiered backend, and kill-the-server-mid-check."""

import socket

import pytest

from repro import CheckConfig, Session
from repro.store import (RemoteStoreBackend, StoreServer,
                         StoreUnavailableError, TieredStoreBackend,
                         open_store)
from repro.wire import ServerThread
from repro.store.remote import (CircuitBreaker, _parse_address,
                                backoff_delays)

KEY = "ab" + "0" * 62

SAFE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""


def free_port() -> int:
    """A port nothing listens on (bound then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def dead_backend(port=None, **kwargs) -> RemoteStoreBackend:
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("sleep", lambda _s: None)
    return RemoteStoreBackend(host="127.0.0.1",
                              port=port or free_port(), **kwargs)


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_deterministic_for_a_seed(self):
        assert backoff_delays(4, seed=0) == backoff_delays(4, seed=0)
        assert backoff_delays(4, seed=0) != backoff_delays(4, seed=1)

    def test_equal_jitter_bounds_and_cap(self):
        delays = backoff_delays(10, base=0.05, cap=2.0, seed=7)
        for attempt, delay in enumerate(delays):
            upper = min(2.0, 0.05 * 2 ** attempt)
            assert upper / 2 <= delay <= upper
        assert delays[-1] <= 2.0

    def test_schedule_grows_exponentially_until_the_cap(self):
        delays = backoff_delays(6, base=0.1, cap=100.0, seed=3)
        # each uncapped upper bound doubles, so the lower bounds do too
        for attempt in range(1, 6):
            assert delays[attempt] > 0.1 * 2 ** (attempt - 1) / 2

    def test_empty_schedule(self):
        assert backoff_delays(0) == []


# ---------------------------------------------------------------------------
# the circuit breaker
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_closed_until_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_to_half_open_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 4.9
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.allow()  # the single half-open trial
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one trial while half-open

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()
        clock.now = 2.0
        assert breaker.allow()


# ---------------------------------------------------------------------------
# address parsing
# ---------------------------------------------------------------------------


class TestAddressParsing:
    def test_host_port_and_options(self):
        host, port, options = _parse_address(
            "cache.example:6160?timeout=2&retries=1&pool=4")
        assert (host, port) == ("cache.example", 6160)
        assert options == {"timeout": "2", "retries": "1", "pool": "4"}

    @pytest.mark.parametrize("address", ["nohost", ":123", "host:notaport"])
    def test_malformed_addresses_rejected(self, address):
        with pytest.raises(ValueError):
            _parse_address(address)

    def test_options_reach_the_backend(self):
        backend = RemoteStoreBackend("127.0.0.1:1?timeout=2.5&retries=3")
        assert backend.timeout == 2.5
        assert backend.retries == 3
        backend.close()

    def test_tiered_root_parsing(self, tmp_path):
        backend = TieredStoreBackend(
            f"{tmp_path}/l1?remote=127.0.0.1:1&retries=0")
        assert backend.remote.retries == 0
        backend.close()
        with pytest.raises(ValueError, match="remote"):
            TieredStoreBackend(str(tmp_path))


# ---------------------------------------------------------------------------
# fail-open degradation
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_dead_server_degrades_data_ops_to_misses(self):
        backend = dead_backend()
        assert backend.get("verdicts", KEY) is None
        assert backend.put("verdicts", KEY, b"x") is False
        counters = backend.counters()
        assert counters["degraded_gets"] == 1
        assert counters["degraded_puts"] == 1
        assert counters["remote_errors"] >= 2
        backend.close()

    def test_retry_sleeps_follow_the_backoff_schedule(self):
        slept = []
        backend = dead_backend(retries=2, sleep=slept.append)
        backend.breaker.threshold = 100  # keep the breaker out of the way
        backend.get("verdicts", KEY)
        assert slept == backoff_delays(2, seed=0)[:len(slept)]
        assert len(slept) == 2
        backend.close()

    def test_breaker_opens_and_fails_fast(self):
        backend = dead_backend(retries=0, breaker_threshold=2)
        backend.get("verdicts", KEY)
        backend.get("verdicts", KEY)  # second consecutive failure: opens
        assert backend.breaker.state == CircuitBreaker.OPEN
        before = backend.counters()["remote_errors"]
        assert backend.get("verdicts", KEY) is None  # no connect attempt
        counters = backend.counters()
        assert counters["remote_errors"] == before
        assert counters["fail_fast"] == 1
        assert counters["circuit_opens"] == 1
        backend.close()

    def test_breaker_recovers_when_the_server_comes_back(self, tmp_path):
        clock = FakeClock()
        port = free_port()
        backend = RemoteStoreBackend(host="127.0.0.1", port=port, retries=0,
                                     breaker_threshold=1,
                                     breaker_cooldown=10.0,
                                     sleep=lambda _s: None, clock=clock)
        assert backend.get("verdicts", KEY) is None
        assert backend.breaker.state == CircuitBreaker.OPEN
        with ServerThread(StoreServer(root=str(tmp_path), port=port)):
            clock.now = 10.0  # cooldown elapsed: half-open trial allowed
            assert backend.put("verdicts", KEY, b"back")
            assert backend.breaker.state == CircuitBreaker.CLOSED
            assert backend.get("verdicts", KEY) == b"back"
        backend.close()

    def test_admin_ops_raise_store_unavailable(self):
        backend = dead_backend(retries=0)
        with pytest.raises(StoreUnavailableError, match="unreachable"):
            backend.stats()
        with pytest.raises(StoreUnavailableError):
            backend.gc(0)
        with pytest.raises(StoreUnavailableError):
            backend.clear()
        backend.close()

    def test_degradation_counters_ride_store_stats(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            backend = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            backend.degraded_gets = 3  # pretend some earlier degradation
            stats = backend.stats()
            assert stats.remote["degraded_gets"] == 3
            assert "remote" in stats.to_dict()
            backend.close()
        # a purely local stats dict carries no remote section
        from repro.store import LocalStoreBackend
        assert "remote" not in LocalStoreBackend(tmp_path).stats().to_dict()


# ---------------------------------------------------------------------------
# the tiered backend
# ---------------------------------------------------------------------------


class TestTiered:
    def test_write_through_and_read_through(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path / "server"))) as server:
            first = TieredStoreBackend(
                f"{tmp_path}/l1?remote=127.0.0.1:{server.port}")
            assert first.put("verdicts", KEY, b"shared")
            # the write went to both tiers
            assert first.local.get("verdicts", KEY) == b"shared"
            first.close()

            second = TieredStoreBackend(
                f"{tmp_path}/l2?remote=127.0.0.1:{server.port}")
            assert second.get("verdicts", KEY) == b"shared"  # via L2
            assert second.l2_hits == 1 and second.l2_fills == 1
            # now populated locally: the next read never leaves the machine
            assert second.get("verdicts", KEY) == b"shared"
            assert second.l1_hits == 1
            second.close()

    def test_keeps_working_at_local_speed_when_the_server_dies(self, tmp_path):
        server = ServerThread(StoreServer(root=str(tmp_path / "server"))).start()
        backend = TieredStoreBackend(
            f"{tmp_path}/l1?remote=127.0.0.1:{server.port}"
            "&retries=0&timeout=2")
        backend.remote._sleep = lambda _s: None
        assert backend.put("verdicts", KEY, b"v1")
        server.stop()
        # remote is gone: puts still land locally, gets still answer
        other = "cd" + "1" * 62
        assert backend.put("verdicts", other, b"v2")
        assert backend.get("verdicts", other) == b"v2"
        assert backend.get("verdicts", KEY) == b"v1"
        counters = backend.counters()
        assert counters["remote_errors"] >= 1
        assert counters["l1_hits"] == 2
        backend.close()

    def test_gc_and_clear_manage_the_local_tier_only(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path / "server"))) as server:
            backend = TieredStoreBackend(
                f"{tmp_path}/l1?remote=127.0.0.1:{server.port}")
            backend.put("verdicts", KEY, b"entry")
            assert backend.clear() == 1  # the local copy
            # the shared server still holds the entry
            assert backend.remote.get("verdicts", KEY) == b"entry"
            backend.close()

    def test_stats_merge_tier_and_remote_counters(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path / "server"))) as server:
            backend = TieredStoreBackend(
                f"{tmp_path}/l1?remote=127.0.0.1:{server.port}")
            backend.put("verdicts", KEY, b"entry")
            backend.get("verdicts", KEY)
            stats = backend.stats()
            assert stats.kinds["verdicts"].entries == 1  # the local tier
            assert stats.remote["l1_hits"] == 1
            assert stats.remote["remote_errors"] == 0
            backend.close()


# ---------------------------------------------------------------------------
# end-to-end: checks against a dying server
# ---------------------------------------------------------------------------


def _verdict(result):
    return ([d.to_dict() for d in result.diagnostics],
            {k: [str(q) for q in quals]
             for k, quals in sorted(result.kappa_solution.items())})


class TestKillServerMidCheck:
    def test_check_against_a_server_that_died(self, tmp_path):
        reference = Session(CheckConfig()).check_source(SAFE, "t.rsc")

        server = ServerThread(StoreServer(root=str(tmp_path))).start()
        url = (f"remote://127.0.0.1:{server.port}"
               "?retries=0&timeout=2")
        cold = Session(CheckConfig(store_path=url)).check_source(
            SAFE, "t.rsc")
        assert _verdict(cold) == _verdict(reference)

        server.stop()  # the fleet's cache server dies mid-run

        session = Session(CheckConfig(store_path=url))
        session.store.backend._sleep = lambda _s: None
        survivor = session.check_source(SAFE, "t.rsc")
        # the check completed, the verdicts are still byte-identical, and
        # the degradation was counted, not raised
        assert survivor.ok
        assert _verdict(survivor) == _verdict(reference)
        assert session.store.backend.counters()["remote_errors"] > 0

    def test_check_against_a_server_that_never_existed(self):
        url = f"remote://127.0.0.1:{free_port()}?retries=0&timeout=2"
        session = Session(CheckConfig(store_path=url))
        session.store.backend._sleep = lambda _s: None
        result = session.check_source(SAFE, "t.rsc")
        assert result.ok
        counters = session.store.backend.counters()
        assert counters["remote_errors"] > 0
        assert counters["degraded_gets"] > 0

    def test_warm_replay_through_a_live_server_is_zero_sat(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path))) as server:
            url = f"remote://127.0.0.1:{server.port}"
            cold = Session(CheckConfig(store_path=url)).check_source(
                SAFE, "t.rsc")
            warm = Session(CheckConfig(store_path=url)).check_source(
                SAFE, "t.rsc")
        assert warm.stats.queries == 0
        assert warm.stats.sat_calls == 0
        assert _verdict(cold) == _verdict(warm)

    def test_open_store_resolves_remote_and_tiered_schemes(self, tmp_path):
        with ServerThread(StoreServer(root=str(tmp_path / "server"))) as server:
            remote = open_store(CheckConfig(
                store_path=f"remote://127.0.0.1:{server.port}"))
            assert isinstance(remote.backend, RemoteStoreBackend)
            remote.backend.close()
            tiered = open_store(CheckConfig(
                store_path=f"tiered://{tmp_path}/l1"
                           f"?remote=127.0.0.1:{server.port}"))
            assert isinstance(tiered.backend, TieredStoreBackend)
            tiered.backend.close()
