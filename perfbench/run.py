"""The repository benchmark: cold checks, store replay and serve edits.

    python3 perfbench/run.py --workload cold-ports --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every check runs in a fresh child process
(``child.py``) or in a ``repro serve --tcp`` server, never in this process,
because the checker's intern and memo tables are process-global.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a traced
run (see README.md).  The seed fixes the input order, the serve edit
streams and the children's ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import BUCKETS as SELF_TIMES
from layers import COUNTS as TIMER_COUNTS
from layers import SOLVER_COUNTS

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
WORKLOADS = ("cold-ports", "store-replay", "serve-edits")

#: Seconds one child check or one server reply may take.
CHILD_TIMEOUT = 60.0
#: Server spawns timed for ``setup_s`` in serve-edits (the last one serves).
SERVER_SPAWNS = 9
#: Timed edits per client at least, so that p90 has ten samples beyond it
#: and peak memory is read after ``PEAK_RSS_EDITS`` even on a slow host.
MIN_EDITS_PER_CLIENT = 75
#: Timed edits per client on each of the two servers of a traced run.
TRACE_EDITS_PER_CLIENT = 40
#: One block of a client's edit stream; each block is shuffled by the seed.
#: The mix is an assumption, not taken from a recorded editing session (see
#: README.md); every run reports the traffic it produced (``traffic``).
EDIT_BLOCK = ["body"] * 8 + ["comment"] * 4 + ["break"] * 3 + ["revert"] * 5
EDIT_KINDS = ["body", "comment", "break", "revert"]
#: How the server answered an edit: from the per-document cache, by a warm
#: re-solve, or by a cold re-solve.
REPLY_CLASSES = ["doc_cache_hits", "warm_edits", "cold_edits"]

END_TO_END = ["setup_s", "check_s", "edit_p50_ms", "edit_p90_ms",
              "edits_per_s", "peak_rss_mb"]
UNITS = {"setup_s": "s", "check_s": "s", "edit_p50_ms": "ms",
         "edit_p90_ms": "ms", "edits_per_s": "1/s", "peak_rss_mb": "MB"}

#: Reference sample (``reference_sample``), in seconds, of a fast, idle
#: 2-core host: the speed every reported time is scaled to.
REFERENCE_NOMINAL_S = 0.060
#: Seconds of a round of serve updates, and the reference samples taken at
#: the pause before each round.
PAUSE_PERIOD = 4.0
SAMPLES_PER_PAUSE = 2
#: Timed updates (both clients together) after which the server's peak
#: memory is read: a fixed count, because memory grows with every edit.
PEAK_RSS_EDITS = 150
#: What the reference interpreter imports.
REFERENCE_IMPORTS = ("import argparse, ast, collections, dataclasses, "
                     "decimal, enum, fractions, functools, hashlib, heapq, "
                     "inspect, itertools, json, pathlib, re, socket, "
                     "threading, typing")

FIXPOINT_COUNTS = ["queries_issued", "queries_pruned", "rounds"]
SERVE_STAGES = ["parse", "constraints", "solve", "verify"]


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Context:
    """What every workload needs: the checkout, the seed and the tally."""

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.env = self._child_env()
        #: every reference sample of the run (see ``host_factor``)
        self.references: List[float] = []

    def sample_host(self, count: int = 1) -> List[float]:
        """Sample the host's speed now (see ``reference_sample``)."""
        samples = [reference_sample() for _ in range(count)]
        self.references += samples
        return samples

    def rng(self, purpose: str) -> random.Random:
        """An independent seeded stream per purpose (str seeds hash the
        same in every process)."""
        return random.Random(f"{self.seed}:{purpose}")

    def _child_env(self) -> Dict[str, str]:
        # An inherited REPRO_STORE would silently turn cold checks into
        # store replays, and REPRO_TRACE* would trace the untraced runs.
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = str(self.rng("hash").randrange(1, 2 ** 32))
        return env

    def tally(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {why}", file=sys.stderr)


def locate_checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro under {root}: run from the root "
                         "of a checkout of the repository")
    if not (root / "benchmarks" / "programs").is_dir():
        raise BenchError(f"no benchmarks/programs under {root}")
    return root


def build(ctx: Context) -> None:
    """Byte-compile the program and the benchmark, as installing a package
    would.  Imports do not write bytecode under ``PYTHONDONTWRITEBYTECODE``,
    and then every child would compile the whole checker from source inside
    its measured start-up.  Up-to-date files are skipped."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed: {proc.stdout[-400:]}")


class _Node:
    __slots__ = ("kind", "serial", "weight")

    def __init__(self, kind: int, serial: int, weight: int) -> None:
        self.kind = kind
        self.serial = serial
        self.weight = weight


def _reference_work() -> None:
    """A fixed task like the checker's own work: small objects interned in
    a dictionary, and Gaussian elimination over exact fractions."""
    table: Dict[tuple, _Node] = {}
    for serial in range(40_000):
        node = _Node(serial % 97, serial, serial * 7 % 13)
        key = (node.kind, node.weight, serial & 255)
        known = table.get(key)
        table[key] = node if known is None else \
            _Node(known.kind, known.serial + serial, node.weight)
    rows = [[Fraction(i * j % 11 - 5, 1 + (i + j) % 4) for j in range(8)]
            for i in range(24)]
    for p in range(6):
        pivot = rows[p][p] or Fraction(1)
        for row in rows[p + 1:]:
            factor = row[p] / pivot
            for j in range(p, 8):
                row[j] -= factor * rows[p][j]


def reference_sample() -> float:
    """One host-speed sample: the geometric mean of two fixed tasks of the
    benchmark's own, neither of which runs program code: starting an
    isolated interpreter that imports part of the standard library, and
    ``_reference_work`` in this process.  It is taken only while no check
    is running: the host's two cores slow each other down."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", REFERENCE_IMPORTS],
                   check=True, timeout=CHILD_TIMEOUT)
    spawn_s = time.perf_counter() - start
    start = time.perf_counter()
    _reference_work()
    work_s = time.perf_counter() - start
    return math.sqrt(spawn_s * work_s)


def host_factor(samplings: List[List[float]], index: int) -> float:
    """The factor that scales a time measured between samplings ``index``
    and ``index + 1`` to the nominal host speed: 0.9 while the reference
    runs 10% slow.  It is the median of the samples of those two samplings
    and of their neighbours, so it follows the host over a few measurements
    and one disturbed sample is outvoted."""
    return REFERENCE_NOMINAL_S / statistics.median(
        sample for sampling in samplings[max(index - 1, 0):index + 3]
        for sample in sampling)


def report_host(ctx: Context, measured: dict) -> None:
    """Print the run's reference samples and its unscaled metrics."""
    samples = ctx.references
    print(f"host speed: {len(samples)} reference samples, median "
          f"{statistics.median(samples) * 1000:.2f} ms; measured "
          f"{json.dumps(measured)}", file=sys.stderr)


def expected_errors(errors) -> List[Tuple[str, int]]:
    return sorted((code, int(line)) for code, line in errors)


# ---------------------------------------------------------------------------
# cold workloads: one fresh child per input
# ---------------------------------------------------------------------------


def run_child(ctx: Context, name: str, store: Optional[Path] = None,
              trace: bool = False, replay: bool = False) -> Optional[dict]:
    """Check one input in a fresh child; verify and return its record."""
    spec = ctx.expected["cold"][name]
    cmd = [sys.executable, str(HERE / "child.py"), "--input", spec["path"]]
    if spec["project"]:
        cmd.append("--project")
    if store is not None:
        cmd += ["--store", str(store)]
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        ctx.tally(False, f"{name}: timed out")
        return None
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        ctx.tally(False, f"{name}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
        return None
    data = json.loads(lines[-1])
    if not Path(data["module"]).resolve().is_relative_to(ctx.root / "src"):
        raise BenchError(f"child imported repro from {data['module']}")
    want = spec["verdict"] == "SAFE"
    ok = data["ok"] == want and (not want or not data["errors"])
    why = f"{name}: ok={data['ok']} errors={data['errors']}"
    if replay and (data["stats"]["queries"] or data["stats"]["sat_calls"]):
        ok = False
        why = f"{name}: replay issued {data['stats']['queries']} queries, " \
              f"{data['stats']['sat_calls']} SAT calls"
    ctx.tally(ok, why)
    data["name"] = name
    data["wall"] = wall
    return data


def cold_pass(ctx: Context, order: List[str], store: Optional[Path],
              trace: bool = False, replay: bool = False) -> List[dict]:
    """Check ``order`` one child at a time."""
    records = []
    for name in order:
        record = run_child(ctx, name, store, trace, replay)
        if record is not None:
            records.append(record)
    return records


def fresh_store(name: str) -> Path:
    store = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    store.mkdir(parents=True)
    return store


def cold_workload(ctx: Context, workload: str, trace: bool) -> dict:
    names = list(ctx.expected["cold"])
    order_rng = ctx.rng("order")
    store = None
    replay = workload == "store-replay"
    try:
        if replay:
            # Set-up, not timed: populate this run's own store.
            store = fresh_store("store")
            cold_pass(ctx, order_rng.sample(names, len(names)), store)
        else:
            # Untimed warm-up child: byte-compiles and warms the file cache.
            run_child(ctx, min(names, key=len))
        if trace:
            # Each input untraced, then traced: the host's drift hits both.
            plain, traced = [], []
            for name in order_rng.sample(names, len(names)):
                plain += cold_pass(ctx, [name], store, replay=replay)
                traced += cold_pass(ctx, [name], store, trace=True,
                                    replay=replay)
            return cold_layers(ctx, plain, traced)
        # Seeded passes over the inputs until --seconds have passed; the
        # first pass always completes, a later one stops at the deadline.
        # The host's speed is sampled before the first child and after
        # every child (see ``host_factor``).
        records: List[dict] = []
        samplings = [ctx.sample_host()]
        deadline = time.perf_counter() + ctx.seconds
        first = True
        while first or time.perf_counter() < deadline:
            for name in order_rng.sample(names, len(names)):
                if not first and time.perf_counter() >= deadline:
                    break
                checked = cold_pass(ctx, [name], store, replay=replay)
                for record in checked:
                    record["sampling"] = len(samplings) - 1
                    records.append(record)
                samplings.append(ctx.sample_host())
            first = False
        for record in records:
            record["factor"] = host_factor(samplings, record["sampling"])
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
    if not records:
        return {}
    print(f"{workload}: {len(records)} timed checks", file=sys.stderr)
    report_host(ctx, cold_metrics(records, scaled=False))
    return cold_metrics(records, scaled=True)


def cold_metrics(records: List[dict], scaled: bool) -> dict:
    """The end-to-end metrics of the timed checks, each check's times
    ``scaled`` by its host factor, or as measured.
    Per input, the median over its checks; the latencies and the rate are
    taken over the nine inputs' median process wall-clocks."""
    checks: Dict[str, List[float]] = {}
    walls: Dict[str, List[float]] = {}
    setups: List[float] = []
    for record in records:
        factor = record["factor"] if scaled else 1.0
        checks.setdefault(record["name"], []).append(
            record["check_s"] * factor)
        walls.setdefault(record["name"], []).append(record["wall"] * factor)
        setups.append((record["wall"] - record["check_s"]) * factor)
    walls_s = [statistics.median(v) for v in walls.values()]
    walls_ms = [wall * 1000.0 for wall in walls_s]
    return {
        "setup_s": statistics.median(setups),
        "check_s": sum(statistics.median(v) for v in checks.values()),
        "edit_p50_ms": percentile(walls_ms, 50),
        "edit_p90_ms": percentile(walls_ms, 90),
        "edits_per_s": len(walls_s) / sum(walls_s),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
    }


def cold_layers(ctx: Context, plain: List[dict], traced: List[dict]) -> dict:
    """Per-layer metrics of a traced pass, beside an untraced one."""
    metrics = empty_layer_metrics(ctx)
    for record in traced:
        for key, value in record["layers"].items():
            if key in metrics:
                metrics[key] += value
        for key in SOLVER_COUNTS:
            metrics[f"smt.{key}"] += record["stats"][key]
        for key in FIXPOINT_COUNTS:
            metrics[f"fixpoint.{key}"] += record["fixpoint"][key]
    for record in plain:
        metrics[f"input.{record['name']}.check_s"] = record["check_s"]
    interned = [record["intern"] for record in traced]
    set_intern(metrics, sum(i["hits"] for i in interned),
               sum(i["misses"] for i in interned),
               max((i["live_terms"] for i in interned), default=0))
    wall = sum(record["check_s"] for record in traced)
    finish_layers(metrics, wall, len(traced), wall,
                  sum(record["check_s"] for record in plain))
    return metrics


# ---------------------------------------------------------------------------
# serve-edits: one server, a closed loop of two clients
# ---------------------------------------------------------------------------


class EditStream:
    """A seeded stream of edits to one port, with each text's expected
    verdict.

    The text is the port plus a state: one no-op ``var`` statement per
    padded function (inserted after the last ``{`` of its header line), at
    most one trailing ``// note`` comment, and at most one hand-written
    break.  None of these moves a line, so a break's expected line holds
    in every state.
    """

    def __init__(self, spec: dict, base: str, rng: random.Random) -> None:
        self.spec = spec
        self.lines = base.split("\n")
        self.rng = rng
        self.serial = 0
        self.state = ((), None, None)  # (pads, note, break index)
        self.history: List[tuple] = [self.state]
        self.kinds: List[str] = []
        self.functions: List[str] = []
        self.breaks: List[int] = []

    def _next(self, pool: List, fill) -> object:
        if not pool:
            pool.extend(fill())
        return pool.pop()

    def render(self, state: tuple) -> str:
        pads, note, broken = state
        lines = list(self.lines)
        for anchor, serial in pads:
            index = next(i for i, line in enumerate(lines) if anchor in line)
            line = lines[index]
            cut = line.rindex("{") + 1
            lines[index] = (f"{line[:cut]} var pad{serial} = {serial};"
                            f"{line[cut:]}")
        if broken is not None:
            edit = self.spec["breaks"][broken]
            index = edit["line"] - 1
            if edit["old"] not in lines[index]:
                raise BenchError(f"break {edit['name']}: {edit['old']!r} "
                                 f"not on line {edit['line']}")
            lines[index] = lines[index].replace(edit["old"], edit["new"], 1)
        if note is not None:
            index, serial = note
            lines[index] += f" // note {serial}"
        return "\n".join(lines)

    def expected(self, state: tuple) -> Tuple[str, List[Tuple[str, int]]]:
        broken = state[2]
        if broken is None:
            return "SAFE", []
        return "UNSAFE", expected_errors(self.spec["breaks"][broken]["errors"])

    def next(self) -> Tuple[str, str, tuple]:
        """The next edit: (kind, text, expected verdict)."""
        kind = self._next(self.kinds, lambda: self.rng.sample(
            EDIT_BLOCK, len(EDIT_BLOCK)))
        pads, note, broken = self.state
        self.serial += 1
        earlier = [s for s in self.history if s != self.state]
        if kind == "revert" and not earlier:
            kind = "body"  # nothing to revert to yet
        if kind == "body":
            anchor = self._next(self.functions, lambda: self.rng.sample(
                self.spec["functions"], len(self.spec["functions"])))
            pads = tuple(sorted(dict(pads, **{anchor: self.serial})
                                .items()))
            state = (pads, note, None)
        elif kind == "comment":
            state = (pads, (self.rng.randrange(len(self.lines)),
                            self.serial), broken)
        elif kind == "break":
            count = len(self.spec["breaks"])
            state = (pads, note, self._next(
                self.breaks, lambda: self.rng.sample(range(count), count)))
        else:
            state = self.rng.choice(earlier)
        if state not in self.history:
            self.history.append(state)
        self.state = state
        return kind, self.render(state), self.expected(state)


class LineClient:
    """A minimal ``repro-serve/3`` NDJSON client (one tenant).

    The benchmark speaks the wire protocol itself instead of using
    ``repro.client``, so a change to the client library under test cannot
    move the numbers."""

    def __init__(self, port: int, tenant: str) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CHILD_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")
        self.tenant = tenant
        self.next_id = 0

    def call(self, method: str, **params) -> dict:
        self.next_id += 1
        request = {"id": self.next_id, "method": method,
                   "tenant": self.tenant}
        if params:
            request["params"] = params
        self.file.write((json.dumps(request) + "\n").encode("utf-8"))
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()


class Server:
    """One ``repro serve --tcp`` child (or the traced variant)."""

    def __init__(self, ctx: Context, table: Optional[Path] = None) -> None:
        if table is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--tcp",
                   "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"),
                   "--table", str(table)]
        WORK.mkdir(parents=True, exist_ok=True)
        self.log = open(WORK / f"server-{os.getpid()}.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.log)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        CHILD_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = time.perf_counter() - start
            if not line:
                raise BenchError("check server did not report its port")
            self.port = json.loads(line)["listening"]["port"]
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        try:
            client = LineClient(self.port, "bench")
            try:
                client.call("shutdown")
            finally:
                client.close()
            self.proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Pacer:
    """Runs the serve clients in rounds of ``PAUSE_PERIOD`` seconds.  At
    the pauses between rounds both clients wait for each other; with
    ``sample`` the host's speed is sampled there while the server is idle,
    and a round's times are scaled by the samples at the pauses around it
    (see ``host_factor``).  The timed phase ends once its rounds add up to
    ``seconds`` and every client has sent ``edits`` updates; with no
    ``seconds`` (a traced run) each client sends exactly ``edits``, so that
    the run's counts repeat.  The pauses are not timed.  After
    ``PEAK_RSS_EDITS`` updates the server's peak memory is read."""

    def __init__(self, ctx: Context, server: Server, edits: int,
                 seconds: float, sample: bool) -> None:
        self.ctx = ctx
        self.server = server
        self.edits = edits
        self.seconds = seconds
        self.sample = sample
        self.outs: List[dict] = []
        self.barrier = threading.Barrier(len(ctx.expected["serve"]),
                                          action=self._pause)
        self.round_start: Optional[float] = None
        #: the host samples taken at each pause: round ``r`` runs between
        #: pauses ``r`` and ``r + 1``
        self.samplings: List[List[float]] = []
        #: the wall-clock of each finished round: from the pause both
        #: clients left to the later one's arrival at the next
        self.rounds: List[float] = []
        self.done = False
        self.lock = threading.Lock()
        self.updates = 0
        self.peak_rss_mb: Optional[float] = None

    def _pause(self) -> None:
        """Runs once per pause, while every client waits."""
        if self.round_start is not None:
            self.rounds.append(time.perf_counter() - self.round_start)
        if self.sample:
            self.samplings.append(self.ctx.sample_host(SAMPLES_PER_PAUSE))
        self.done = sum(self.rounds) >= self.seconds and all(
            len(out["samples"]) >= self.edits for out in self.outs)
        self.round_start = time.perf_counter()

    def round_factor(self, index: int) -> float:
        """The host factor of a round, once every round has finished (1.0
        without ``sample``)."""
        return host_factor(self.samplings, index) if self.sample else 1.0

    def wants_more(self, sent: int) -> bool:
        """Whether a client that has sent ``sent`` updates sends another."""
        return self.seconds > 0 or sent < self.edits

    def updated(self) -> None:
        """Count one finished update."""
        with self.lock:
            self.updates += 1
            if self.updates == PEAK_RSS_EDITS:
                self.peak_rss_mb = self.server.peak_rss_mb()


def drive_client(port: int, tenant: str, name: str, stream: EditStream,
                 pacer: Pacer, out: dict) -> None:
    """One closed-loop client: open once (untimed), then send updates in
    rounds, each update only after the previous reply (see ``Pacer``)."""
    samples = out["samples"]
    client = LineClient(port, tenant)
    try:
        reply = client.call("check", uri=name, text=stream.render(
            stream.state))
        out["warmup"] = (reply, stream.expected(stream.state))
        pacer.barrier.wait(timeout=CHILD_TIMEOUT)
        while not pacer.done:
            pause = time.perf_counter() + PAUSE_PERIOD
            while time.perf_counter() < pause and \
                    pacer.wants_more(len(samples)):
                kind, text, want = stream.next()
                sent = time.perf_counter()
                reply = client.call("update", uri=name, text=text)
                samples.append((kind, time.perf_counter() - sent, reply,
                                want, len(pacer.rounds)))
                pacer.updated()
            pacer.barrier.wait(timeout=CHILD_TIMEOUT)
    except Exception as exc:  # reported by the caller, never lost
        out["error"] = f"{type(exc).__name__}: {exc}"
        pacer.barrier.abort()
    finally:
        client.close()


def verify_reply(ctx: Context, tenant: str, reply: dict, want) -> None:
    verdict, errors = want
    if not reply.get("ok"):
        ctx.tally(False, f"{tenant}: error reply {reply.get('error')}")
        return
    result = reply["result"]
    got = expected_errors([d["code"], d["span"]["line"]]
                          for d in result["diagnostics"]
                          if d["severity"] == "error")
    ctx.tally(result["status"] == verdict and got == errors,
              f"{tenant}: {result['status']} {got}, expected "
              f"{verdict} {errors}")


def serve_session(ctx: Context, server: Server, edits: int,
                  seconds: float = 0.0,
                  sample: bool = False) -> Tuple[List[tuple], Pacer]:
    """Run both clients against ``server`` (see ``Pacer``); verify every
    reply and return the timed samples, each ``(kind, latency, reply, host
    factor)``, and the pacer with the rounds and the peak memory."""
    pacer = Pacer(ctx, server, edits, seconds, sample)
    outs, threads = pacer.outs, []
    for index, (name, spec) in enumerate(ctx.expected["serve"].items()):
        base = (ctx.root / spec["path"]).read_text()
        stream = EditStream(spec, base, ctx.rng(f"edits:{name}"))
        out: dict = {"samples": []}
        outs.append(out)
        threads.append(threading.Thread(
            target=drive_client,
            args=(server.port, f"tenant{index}", f"{name}.rsc", stream,
                  pacer, out)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=ctx.seconds + 4 * CHILD_TIMEOUT)
        if thread.is_alive():
            raise BenchError("a serve client did not finish")
    samples = []
    for index, out in enumerate(outs):
        tenant = f"tenant{index}"
        if "error" in out:
            ctx.tally(False, f"{tenant}: {out['error']}")
        if "warmup" in out:
            verify_reply(ctx, tenant, *out["warmup"])
        for kind, latency, reply, want, round_index in out["samples"]:
            verify_reply(ctx, tenant, reply, want)
            samples.append((kind, latency, reply,
                            pacer.round_factor(round_index)))
    return samples, pacer


def payload_seconds(sample: tuple) -> float:
    reply = sample[2]
    return reply["result"]["time_seconds"] if reply.get("ok") else 0.0


def reply_class(result: dict) -> str:
    """A document-cache hit does no checking and reports 0 s; any other
    check reports its time and whether the fixpoint was warm-started."""
    if result["time_seconds"] == 0.0:
        return "doc_cache_hits"
    return "warm_edits" if result["warm"] else "cold_edits"


def traffic(samples: List[tuple]) -> Dict[str, int]:
    """The traffic a session produced: how the server answered its edits,
    how many replies were UNSAFE, and the same per edit kind."""
    counts = dict.fromkeys(REPLY_CLASSES + ["unsafe_replies"], 0)
    for kind in EDIT_KINDS:
        counts.update(dict.fromkeys(
            [f"{kind}.{name}" for name in REPLY_CLASSES], 0))
    for kind, _latency, reply, _factor in samples:
        if not reply.get("ok"):
            continue
        result = reply["result"]
        name = reply_class(result)
        counts[name] += 1
        counts[f"{kind}.{name}"] += 1
        counts["unsafe_replies"] += int(result["status"] == "UNSAFE")
    return counts


def report_traffic(samples: List[tuple]) -> Dict[str, int]:
    counts = traffic(samples)
    total = max(len(samples), 1)
    shares = ", ".join(f"{name} {counts[name]} ({counts[name] / total:.0%})"
                       for name in REPLY_CLASSES + ["unsafe_replies"])
    print(f"serve-edits traffic: {len(samples)} timed edits: {shares}",
          file=sys.stderr)
    for kind in EDIT_KINDS:
        row = ", ".join(f"{name} {counts[f'{kind}.{name}']}"
                        for name in REPLY_CLASSES)
        latencies = [s[1] * 1000.0 for s in samples if s[0] == kind]
        print(f"  {kind}: {row}; latency p50 {percentile(latencies, 50):.1f}"
              f" ms, p90 {percentile(latencies, 90):.1f} ms", file=sys.stderr)
    return counts


def serve_workload(ctx: Context, trace: bool) -> dict:
    if trace:
        return serve_layers(ctx)
    spawns = []  # spawn-to-listening seconds
    samplings = []  # the host samples taken before each spawn
    server = None
    try:
        for _ in range(SERVER_SPAWNS):
            if server is not None:
                server.shutdown()
            samplings.append(ctx.sample_host())
            server = Server(ctx)
            spawns.append(server.setup_s)
        samples, pacer = serve_session(ctx, server, MIN_EDITS_PER_CLIENT,
                                       ctx.seconds, sample=True)
    finally:
        if server is not None:
            server.shutdown()
    if not samples or pacer.peak_rss_mb is None:
        return {}
    # Each spawn lies between its own sampling and the next one; the last
    # spawn's next sampling is the one at the first pause.
    samplings += pacer.samplings
    setups = [(spawn, host_factor(samplings, index))
              for index, spawn in enumerate(spawns)]
    print(f"serve-edits: {len(samples)} timed edits in "
          f"{len(pacer.rounds)} rounds", file=sys.stderr)
    report_traffic(samples)
    report_host(ctx, serve_metrics(setups, samples, pacer, scaled=False))
    return serve_metrics(setups, samples, pacer, scaled=True)


def serve_metrics(setups: List[Tuple[float, float]], samples: List[tuple],
                  pacer: Pacer, scaled: bool) -> dict:
    """The end-to-end metrics of a serve run, each time ``scaled`` by the
    host factor of its spawn or round, or as measured."""
    def scale(factor: float) -> float:
        return factor if scaled else 1.0

    latencies_ms = [latency * 1000.0 * scale(factor)
                    for _kind, latency, _reply, factor in samples]
    return {
        "setup_s": statistics.median(setup * scale(factor)
                                     for setup, factor in setups),
        "check_s": statistics.fmean(payload_seconds(s) * scale(s[3])
                                    for s in samples),
        "edit_p50_ms": percentile(latencies_ms, 50),
        "edit_p90_ms": percentile(latencies_ms, 90),
        "edits_per_s": len(samples) / sum(
            wall * scale(pacer.round_factor(index))
            for index, wall in enumerate(pacer.rounds)),
        "peak_rss_mb": pacer.peak_rss_mb,
    }


def serve_layers(ctx: Context) -> dict:
    """The same edit streams on an untraced and a traced server."""
    server = Server(ctx)
    try:
        plain, _ = serve_session(ctx, server, TRACE_EDITS_PER_CLIENT)
    finally:
        server.shutdown()
    table_path = WORK / f"layers-{os.getpid()}.json"
    server = Server(ctx, table=table_path)
    try:
        traced, _ = serve_session(ctx, server, TRACE_EDITS_PER_CLIENT)
    finally:
        server.shutdown()
    table = json.loads(table_path.read_text())
    table_path.unlink()
    metrics = empty_layer_metrics(ctx)
    for key, value in table.items():
        if key in metrics:
            metrics[key] += value
    ok = [reply["result"] for _kind, _lat, reply, _factor in traced
          if reply.get("ok")]
    for result in ok:
        stats = result.get("solve_stats") or {}
        for key in FIXPOINT_COUNTS:
            metrics[f"fixpoint.{key}"] += stats.get(key, 0)
        for stage in SERVE_STAGES:
            metrics[f"serve.{stage}_s"] += \
                (result.get("timings") or {}).get(stage, 0.0)
        metrics["serve.queries"] += result["queries"]
    counts = report_traffic(traced)
    for name in REPLY_CLASSES + ["unsafe_replies"]:
        metrics[f"serve.{name}"] = counts[name]
    metrics["service.check_ms_p50"] = percentile(
        [payload_seconds(s) * 1000.0 for s in traced], 50)
    metrics["service.wait_ms_p50"] = percentile(
        [(s[1] - payload_seconds(s)) * 1000.0 for s in traced], 50)
    interned = table["intern"]
    set_intern(metrics, interned["hits"], interned["misses"],
               interned["live_terms"])
    # The traced wall-clock is the clients' summed update latency.  The part
    # of it outside ServiceCore.execute (socket, event loop, lane and
    # executor queues) is the service's wait.  The overhead compares the
    # server-reported check time of the same edits.
    wall = sum(s[1] for s in traced)
    metrics["service.wait_s"] = wall - table["requests_s"]
    finish_layers(metrics, wall, len(traced),
                  sum(payload_seconds(s) for s in traced),
                  sum(payload_seconds(s) for s in plain))
    return metrics


# ---------------------------------------------------------------------------
# per-layer metric table
# ---------------------------------------------------------------------------


def layer_metric_names(ctx: Context) -> List[str]:
    names = [f"{bucket}.self_s" for bucket in SELF_TIMES]
    names += TIMER_COUNTS + ["smt.theory.minimise_s"]
    names += [f"smt.{key}" for key in SOLVER_COUNTS]
    names += [f"fixpoint.{key}" for key in FIXPOINT_COUNTS]
    names += ["logic.intern.hit_ratio", "logic.intern.live_terms",
              "service.check_ms_p50", "service.wait_ms_p50",
              "service.wait_s"]
    names += [f"serve.{stage}_s" for stage in SERVE_STAGES]
    names += ["serve.queries"]
    names += [f"serve.{name}" for name in REPLY_CLASSES + ["unsafe_replies"]]
    names += [f"input.{name}.check_s" for name in ctx.expected["cold"]]
    names += ["other.self_s", "trace.wall_s", "trace.overhead_frac",
              "failed_frac", "edit_samples"]
    return names


def empty_layer_metrics(ctx: Context) -> Dict[str, float]:
    return dict.fromkeys(layer_metric_names(ctx), 0)


def set_intern(metrics: dict, hits: int, misses: int, live: int) -> None:
    metrics["logic.intern.hit_ratio"] = hits / max(hits + misses, 1)
    metrics["logic.intern.live_terms"] = live


def finish_layers(metrics: dict, wall: float, samples: int,
                  traced_check: float, untraced_check: float) -> None:
    """The traced wall-clock, what no layer accounts for, and the tracing
    overhead (traced against untraced check seconds of the same work)."""
    layer_sum = sum(metrics[f"{bucket}.self_s"] for bucket in SELF_TIMES) \
        + metrics["service.wait_s"]
    metrics["trace.wall_s"] = wall
    metrics["other.self_s"] = wall - layer_sum
    metrics["trace.overhead_frac"] = \
        traced_check / max(untraced_check, 1e-9) - 1.0
    metrics["edit_samples"] = samples


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        ctx = Context(locate_checkout(), args.seed, args.seconds)
        build(ctx)
        if args.workload == "serve-edits":
            values = serve_workload(ctx, bool(args.trace))
        else:
            values = cold_workload(ctx, args.workload, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if not values:
        print("benchmark measured nothing", file=sys.stderr)
        return 1
    if ctx.failed == 0:  # keep the server log only when something failed
        (WORK / f"server-{os.getpid()}.log").unlink(missing_ok=True)
    if args.trace:
        values["failed_frac"] = ctx.failed / max(ctx.attempted, 1)
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in layer_metric_names(ctx)}
    else:
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in END_TO_END}
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
