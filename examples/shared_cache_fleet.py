"""A shared cache fleet: one server, two brand-new worker processes.

The cache server owns an on-disk store and serves it over TCP.  Worker 1
(a fresh process) checks a program cold through ``remote://`` and the
server persists its artifacts; worker 2 (another fresh process, empty
in-memory caches, nothing shared but the network) replays the same
program with **zero fixpoint queries and zero SAT searches** and a
byte-identical verdict.  Finally the server is administered and shut
down over the same socket.  Run from the repository root::

    PYTHONPATH=src python examples/shared_cache_fleet.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.store import StoreServer  # noqa: E402
from repro.wire import ServerThread  # noqa: E402

SOURCE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};

spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }

spec clamp :: (lo: number, hi: {v: number | lo <= v}, x: number)
           => {v: number | lo <= v && v <= hi};
function clamp(lo, hi, x) {
  if (x < lo) { return lo; }
  if (x > hi) { return hi; }
  return x;
}
"""

#: Executed via ``python -c`` so each worker is an honest fresh process —
#: the only thing the two workers share is the cache server's socket.
WORKER = """
import json, sys
sys.path.insert(0, {src!r})
from repro import CheckConfig, Session
session = Session(CheckConfig(store_path={store!r}))
result = session.check_source(open({program!r}).read(), "fleet-demo.rsc")
print(json.dumps({{
    "status": result.status,
    "queries": result.stats.queries,
    "sat_calls": result.stats.sat_calls,
    "solution": {{k: [str(q) for q in qs]
                  for k, qs in result.kappa_solution.items()}},
    "store": session.store.counters(),
}}))
"""


def worker_in_fresh_process(src, store_url, program):
    script = WORKER.format(src=str(src), store=store_url, program=str(program))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def report(label, run):
    store = run["store"]
    print(f"{label:<18} {run['status']:6s} {run['queries']:4d} queries  "
          f"{run['sat_calls']:4d} SAT searches  "
          f"(store: {store['hits']} hits, {store['misses']} misses, "
          f"{store['writes']} writes)")


def main():
    src = pathlib.Path(__file__).parent.parent / "src"
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-fleet-demo-"))
    program = workdir / "fleet-demo.rsc"
    program.write_text(SOURCE)

    with ServerThread(StoreServer(root=str(workdir / "store"))) as server:
        url = f"remote://127.0.0.1:{server.port}"
        print(f"cache server listening on {url}\n")

        # Worker 1: cold — solves everything, artifacts land on the server.
        cold = worker_in_fresh_process(src, url, program)
        report("worker 1 (cold)", cold)

        # Worker 2: a different process replays through the server alone.
        warm = worker_in_fresh_process(src, url, program)
        report("worker 2 (warm)", warm)
        assert warm["queries"] == 0 and warm["sat_calls"] == 0
        assert warm["solution"] == cold["solution"], "replay must be identical"

        # The server is administered over the same socket it serves on.
        stats = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats",
             "--store", url, "--format", "json"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        served = json.loads(stats.stdout)
        print(f"\nserver store holds {served['total_entries']} entries "
              f"({served['total_bytes']} bytes)")
        print("the fleet total equals worker 1's SAT budget: "
              f"{cold['sat_calls']} + {warm['sat_calls']} "
              f"== {cold['sat_calls']}")


if __name__ == "__main__":
    main()
