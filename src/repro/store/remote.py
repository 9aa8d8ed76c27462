"""The networked store backend: ``remote://host:port``.

A :class:`RemoteStoreBackend` implements the full
:class:`repro.store.backend.StoreBackend` protocol over a pooled NDJSON
socket client speaking ``repro-store/1`` to a cache server
(:mod:`repro.store.server`).  Its defining property is that it **fails
open**:

* data operations (``get``/``put``) NEVER raise.  Any network, timeout or
  decode failure degrades to a cache miss (``get`` -> ``None``) or a
  dropped write (``put`` -> ``False``) — a miss is always sound, the
  checker just recomputes, so a dead or lying cache server can slow a
  fleet down but can never break it or corrupt a verdict;
* failed attempts are retried with capped exponential backoff and
  deterministic seeded jitter (:func:`backoff_delays`), bounded by
  ``retries``;
* a :class:`CircuitBreaker` trips after ``breaker_threshold`` consecutive
  failures: while open, operations fail fast (no connect attempt, no
  timeout wait) so a worker keeps running at local speed when the server
  dies mid-run; after ``breaker_cooldown`` seconds one half-open trial is
  let through and either closes the breaker again or re-opens it;
* every degradation is counted (:meth:`RemoteStoreBackend.counters`) and
  surfaced through ``StoreStats.remote`` so ``repro cache stats`` and the
  bench can prove the degraded paths were exercised.

Admin operations (``stats``/``gc``/``clear``/``ping``/``shutdown``) are the
exception: they exist to manage the server, so an unreachable server raises
:class:`StoreUnavailableError` with an actionable message instead of
pretending an empty store.

Select it with ``store_path="remote://host:port"``; options ride in the
query string: ``remote://host:6160?timeout=2&retries=1&pool=4``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Callable, Dict, List, Optional
from urllib.parse import parse_qsl

from repro.obs.trace import current_trace_id, span as trace_span
from repro.store.backend import GcResult, KindStats, StoreStats
from repro.store.protocol import METHODS, decode_payload, encode_payload
from repro.wire import ProtocolError, Request, Response, spec_for

#: Per-operation socket timeout (connect, send and receive), seconds.
DEFAULT_TIMEOUT = 5.0

#: Retries after the first failed attempt of one operation.
DEFAULT_RETRIES = 2

#: Backoff schedule: attempt N sleeps in [base*2^N / 2, base*2^N], capped.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Circuit breaker: consecutive failures before opening, and how long the
#: open state lasts before a half-open trial is allowed.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 5.0

#: Idle pooled connections kept per backend.
DEFAULT_POOL = 2


class StoreUnavailableError(Exception):
    """An *admin* operation could not reach the cache server.

    Data operations never raise this — they degrade to misses.
    """


class RemoteStoreError(Exception):
    """One failed attempt of one operation (internal; callers degrade)."""


def backoff_delays(attempts: int, base: float = BACKOFF_BASE,
                   cap: float = BACKOFF_CAP, seed: int = 0) -> List[float]:
    """The sleep schedule between retry attempts, jittered but deterministic.

    Attempt ``n`` draws uniformly from ``[upper/2, upper]`` where ``upper =
    min(cap, base * 2**n)`` — "equal jitter": enough randomness to decorrelate
    a fleet hammering a recovering server, while a fixed ``seed`` makes the
    schedule reproducible for tests and deterministic benches.
    """
    rng = random.Random(seed)
    delays = []
    for attempt in range(attempts):
        upper = min(cap, base * (2.0 ** attempt))
        delays.append(upper / 2.0 + rng.random() * upper / 2.0)
    return delays


class CircuitBreaker:
    """Closed -> open after N consecutive failures -> half-open -> closed.

    Thread-safe; time is injected for deterministic tests.  While OPEN,
    :meth:`allow` answers False (callers fail fast).  After ``cooldown``
    seconds the next :meth:`allow` switches to HALF_OPEN and lets exactly
    one trial through; :meth:`record_success` closes the breaker,
    :meth:`record_failure` re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = BREAKER_THRESHOLD,
                 cooldown: float = BREAKER_COOLDOWN,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self.clock = clock
        self.state = self.CLOSED
        self.failures = 0
        self.opens = 0
        self.opened_at = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                if self.clock() - self.opened_at >= self.cooldown:
                    self.state = self.HALF_OPEN
                    return True  # the one half-open trial
                return False
            return False  # HALF_OPEN: the trial is already in flight

    def record_success(self) -> None:
        with self._lock:
            self.state = self.CLOSED
            self.failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.state == self.HALF_OPEN or self.failures >= self.threshold:
                if self.state != self.OPEN:
                    self.opens += 1
                self.state = self.OPEN
                self.opened_at = self.clock()
                self.failures = 0


class _PooledClient:
    """A small thread-safe pool of NDJSON connections to one server."""

    def __init__(self, host: str, port: int, timeout: float,
                 pool_size: int) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = max(1, pool_size)
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()
        self._next_id = 0

    def _acquire(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self.pool_size:
                self._idle.append(sock)
                return
        sock.close()

    def call(self, method: str, params) -> dict:
        """One request/response round trip; any failure raises
        :class:`RemoteStoreError` (the socket involved is discarded)."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
        line = json.dumps(Request(method=method, id=request_id,
                                       params=params,
                                       trace=current_trace_id()
                                       ).to_json()) + "\n"
        sock: Optional[socket.socket] = None
        try:
            sock = self._acquire()
            sock.settimeout(self.timeout)
            sock.sendall(line.encode("utf-8"))
            raw = self._read_line(sock)
            obj = json.loads(raw.decode("utf-8"))
            if not isinstance(obj, dict):
                raise ValueError("response is not a JSON object")
            response = Response.from_json(obj)
            if response.id != request_id:
                raise ValueError(f"response id {response.id!r} does not "
                                 f"match request id {request_id!r}")
            result = response.raise_for_error()
        except (OSError, ValueError, ProtocolError) as exc:
            if sock is not None:
                sock.close()
            raise RemoteStoreError(f"{type(exc).__name__}: {exc}") from exc
        self._release(sock)
        return result

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            if chunk.endswith(b"\n") or b"\n" in chunk:
                break
        return b"".join(chunks)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


def _parse_address(root: str) -> tuple:
    """``"host:port?opt=v&..."`` -> (host, port, options dict)."""
    address, _, query = root.partition("?")
    options = dict(parse_qsl(query))
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"invalid remote store address {address!r} "
            "(expected remote://host:port)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid remote store port {port_text!r} "
                         f"in {address!r}") from None
    return host, port, options


class RemoteStoreBackend:
    """The ``remote://`` scheme: a cache server behind the store protocol."""

    def __init__(self, root: Optional[str] = None, *,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 pool: Optional[int] = None,
                 backoff_base: float = BACKOFF_BASE,
                 backoff_cap: float = BACKOFF_CAP,
                 jitter_seed: int = 0,
                 breaker_threshold: int = BREAKER_THRESHOLD,
                 breaker_cooldown: float = BREAKER_COOLDOWN,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 **_options) -> None:
        options: Dict[str, str] = {}
        if root is not None:
            host, port, options = _parse_address(root)
        if host is None or port is None:
            raise ValueError("RemoteStoreBackend needs remote://host:port")
        self.timeout = float(options.get("timeout", timeout
                                         if timeout is not None
                                         else DEFAULT_TIMEOUT))
        self.retries = int(options.get("retries", retries
                                       if retries is not None
                                       else DEFAULT_RETRIES))
        pool_size = int(options.get("pool", pool if pool is not None
                                    else DEFAULT_POOL))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter_seed = jitter_seed
        self.client = _PooledClient(host, port, self.timeout, pool_size)
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown, clock=clock)
        self._sleep = sleep
        self._lock = threading.Lock()
        self.remote_errors = 0    # failed attempts (network/decode)
        self.retries_used = 0     # attempts beyond the first
        self.fail_fast = 0        # ops short-circuited by the open breaker
        self.degraded_gets = 0    # gets that degraded to a miss
        self.degraded_puts = 0    # puts that degraded to a dropped write

    # -- counters ----------------------------------------------------------

    def _count(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def counters(self) -> dict:
        """This backend's degradation counters (surfaced in StoreStats)."""
        with self._lock:
            return {
                "remote_errors": self.remote_errors,
                "retries": self.retries_used,
                "fail_fast": self.fail_fast,
                "circuit_opens": self.breaker.opens,
                "circuit_state": self.breaker.state,
                "degraded_gets": self.degraded_gets,
                "degraded_puts": self.degraded_puts,
            }

    # -- the degraded (data) path ------------------------------------------

    def _call_degraded(self, method: str, params) -> Optional[dict]:
        """One data op: retries + breaker; ``None`` means "degrade"."""
        with trace_span("store.remote", "store", method=method) as sp:
            if not self.breaker.allow():
                self._count("fail_fast")
                sp.note(fail_fast=True)
                return None
            delays = backoff_delays(self.retries, self.backoff_base,
                                    self.backoff_cap, self.jitter_seed)
            for attempt in range(self.retries + 1):
                try:
                    result = self.client.call(method, params)
                except RemoteStoreError:
                    self._count("remote_errors")
                    self.breaker.record_failure()
                    if attempt >= self.retries or not self.breaker.allow():
                        sp.note(attempts=attempt + 1, degraded=True)
                        return None
                    self._count("retries_used")
                    self._sleep(delays[attempt])
                    continue
                self.breaker.record_success()
                sp.note(attempts=attempt + 1)
                return result
            return None

    # -- StoreBackend data protocol ----------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        spec = spec_for(METHODS, "get")
        result = self._call_degraded("get", spec.params(kind=kind, key=key))
        if result is None:
            self._count("degraded_gets")
            return None
        payload = spec.payload.from_json(result)
        if not payload.found or payload.payload_b64 is None:
            return None
        try:
            return decode_payload(payload.payload_b64)
        except ProtocolError:
            # The transport worked but the bytes are unusable — a miss.
            self._count("remote_errors")
            self._count("degraded_gets")
            return None

    def put(self, kind: str, key: str, payload: bytes) -> bool:
        spec = spec_for(METHODS, "put")
        result = self._call_degraded(
            "put", spec.params(kind=kind, key=key,
                               payload_b64=encode_payload(payload)))
        if result is None:
            self._count("degraded_puts")
            return False
        return bool(spec.payload.from_json(result).stored)

    # -- StoreBackend admin protocol (raises when unreachable) -------------

    def _call_admin(self, method: str, params) -> dict:
        last: Optional[RemoteStoreError] = None
        delays = backoff_delays(self.retries, self.backoff_base,
                                self.backoff_cap, self.jitter_seed)
        for attempt in range(self.retries + 1):
            try:
                result = self.client.call(method, params)
            except RemoteStoreError as exc:
                last = exc
                self._count("remote_errors")
                self.breaker.record_failure()
                if attempt < self.retries:
                    self._count("retries_used")
                    self._sleep(delays[attempt])
                continue
            self.breaker.record_success()
            return result
        raise StoreUnavailableError(
            f"cache server {self.client.host}:{self.client.port} "
            f"is unreachable ({last})")

    def stats(self) -> StoreStats:
        spec = spec_for(METHODS, "stats")
        payload = spec.payload.from_json(
            self._call_admin("stats", spec.params()))
        stats = StoreStats(kinds={
            name: KindStats(entries=int(entry.get("entries", 0)),
                            bytes=int(entry.get("bytes", 0)))
            for name, entry in sorted(payload.kinds.items())})
        stats.remote = self.counters()
        return stats

    def gc(self, max_bytes: int) -> GcResult:
        spec = spec_for(METHODS, "gc")
        payload = spec.payload.from_json(
            self._call_admin("gc", spec.params(max_bytes=max_bytes)))
        return GcResult(evicted_entries=payload.evicted_entries,
                        evicted_bytes=payload.evicted_bytes,
                        kept_entries=payload.kept_entries,
                        kept_bytes=payload.kept_bytes)

    def clear(self) -> int:
        spec = spec_for(METHODS, "clear")
        return int(spec.payload.from_json(
            self._call_admin("clear", spec.params())).removed)

    def ping(self) -> dict:
        spec = spec_for(METHODS, "ping")
        return self._call_admin("ping", spec.params())

    def shutdown(self) -> dict:
        spec = spec_for(METHODS, "shutdown")
        return self._call_admin("shutdown", spec.params())

    def close(self) -> None:
        self.client.close()
