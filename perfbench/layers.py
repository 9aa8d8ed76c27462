"""Per-layer self-times for a traced benchmark run.

A :class:`LayerTimer` replaces the public entry points of each layer of the
checker with thin timing wrappers.  Every wrapper pushes a frame on a
thread-local stack, so a call's *self-time* is its duration minus the time
spent in wrapped calls it made.  Self-times of all layers therefore add up
to the inclusive time of the outermost wrapped calls, and whatever a run's
wall-clock holds beyond that is reported as ``other.self_s`` by the caller.

Names are patched where callers look them up: a function imported with
``from module import name`` is replaced in the importing module too.  The
congruence-closure inner helpers (``find``, ``representative``,
``add_term``) are deliberately left alone: they are called far more often
than any wrapped entry point, so the wrappers' own cost would dominate.

Store hits and misses are not counted here: the timer remembers every
:class:`ArtifactStore` the run constructs and sums the stores' own
:meth:`ArtifactStore.counters`, so they keep the store's definition of a hit.

The timer is used in two places:

* ``child.py --trace`` installs it in a cold child and prints its table;
* ``traced_server.py`` installs it in a check server started through
  :func:`repro.service.server.run_server` and writes the table when the
  server shuts down.  There only ``update`` requests count: every
  :meth:`ServiceCore.execute` call gets a fresh per-thread table that is
  merged into the result only when the request was an update, which keeps
  the untimed warm-up ``check`` out of the numbers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: (layer bucket, count name or None, module path, attribute path).
#: An attribute path with a dot patches a method on a class.
ENTRY_POINTS = [
    ("lang.parse", "lang.parse.calls", "repro.core.workspace",
     "Workspace.parse"),
    ("core.constraints", None, "repro.core.workspace",
     "Workspace.constraints"),
    ("fixpoint.solve", None, "repro.core.liquid.fixpoint",
     "LiquidSolver.solve"),
    ("fixpoint.verify", None, "repro.core.liquid.fixpoint",
     "LiquidSolver.check_concrete"),
    ("smt.solver", None, "repro.smt.solver", "Solver.check"),
    ("smt.solver", None, "repro.smt.solver", "Solver.check_implication"),
    ("smt.solver", None, "repro.smt.solver",
     "Solver.check_implication_batch"),
    ("smt.solver", None, "repro.smt.solver",
     "Solver.environment_inconsistent"),
    ("smt.context", None, "repro.smt.context", "SolverContext.check_goal"),
    ("smt.cnf", "smt.cnf.calls", "repro.smt.context", "tseitin"),
    ("smt.cnf", "smt.cnf.calls", "repro.smt.solver", "tseitin"),
    ("smt.sat", "smt.sat.solves", "repro.smt.sat", "SatSolver.solve"),
    ("smt.sat", "smt.sat.probes", "repro.smt.sat",
     "SatSolver.propagate_probe"),
    ("smt.theory", "smt.theory.core_calls", "repro.smt.context",
     "check_with_core"),
    ("smt.theory", "smt.theory.core_calls", "repro.smt.solver",
     "check_with_core"),
    ("smt.euf", "smt.euf.instances", "repro.smt.euf",
     "CongruenceClosure.__init__"),
    ("smt.euf", None, "repro.smt.euf", "CongruenceClosure.assert_eq"),
    ("smt.euf", None, "repro.smt.euf", "CongruenceClosure.assert_neq"),
    ("smt.euf", "smt.euf.int_value_of_calls", "repro.smt.euf",
     "CongruenceClosure.int_value_of"),
    ("smt.euf", None, "repro.smt.euf", "CongruenceClosure.classes"),
    ("smt.lia", "smt.lia.calls", "repro.smt.theory", "is_satisfiable"),
    ("logic.simplify", None, "repro.smt.context", "simplify"),
    ("logic.simplify", None, "repro.smt.solver", "simplify"),
    ("project", None, "repro.core.session", "Session.check_project"),
    ("service", None, "repro.service.core", "ServiceCore.execute"),
]

#: Store entry points, timed for ``store.self_s``.
STORE_CALLS = ["load_verdicts", "load_solution", "load_module",
               "save_verdicts", "save_solution", "save_module"]

#: Every self-time bucket, in report order.
BUCKETS = ["lang.parse", "core.constraints", "fixpoint.solve",
           "fixpoint.verify", "smt.solver", "smt.context", "smt.cnf",
           "smt.sat", "smt.theory", "smt.euf", "smt.lia", "logic.simplify",
           "store", "project", "service"]

#: Every call count the timer produces, in report order.
COUNTS = ["lang.parse.calls", "smt.cnf.calls", "smt.sat.solves",
          "smt.sat.probes", "smt.theory.checks", "smt.theory.core_calls",
          "smt.theory.minimise_checks", "smt.euf.instances",
          "smt.euf.int_value_of_calls", "smt.lia.calls",
          "core.implications", "store.hits", "store.misses"]

#: Solver counters a server request reports as ``smt.<name>`` (a cold
#: child takes the same ones from its check result).
SOLVER_COUNTS = ["queries", "sat_calls", "cache_hits", "contexts_created",
                 "contexts_reused", "lemmas_reused"]


class _Table:
    """One thread's (or one request's) accumulated self-times and counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        self.counts: Counter = Counter()
        self.minimise_s = 0.0

    def merge(self, other: "_Table") -> None:
        for name, value in other.self_s.items():
            self.self_s[name] += value
        self.counts.update(other.counts)
        self.minimise_s += other.minimise_s


class LayerTimer:
    """Installs the layer wrappers and accumulates their self-times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[_Table] = []
        #: the merged table of finished ``update`` requests (server mode)
        self.requests = _Table()
        self.requests_seen = 0
        #: the summed wall-clock of those requests inside the server
        self.requests_s = 0.0
        #: every ArtifactStore constructed since install()
        self.stores: list = []

    # -- per-thread state --------------------------------------------------

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.core_checks = -1  # >= 0 while inside check_with_core
            local.table = _Table()
            with self._lock:
                self._tables.append(local.table)
        return local

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerTimer":
        import importlib
        for bucket, count, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if attr == "ServiceCore.execute":
                self._patch(module, attr, self._wrap_request)
            elif attr == "check_with_core":
                self._patch(module, attr, self._wrap_core)
            elif attr == "Workspace.constraints":
                self._patch(module, attr, self._wrap_constraints)
            else:
                self._patch(module, attr,
                            functools.partial(self._wrap, bucket, count))
        theory = importlib.import_module("repro.smt.theory")
        self._patch(theory, "check_literals", self._wrap_check_literals)
        artifacts = importlib.import_module("repro.store.artifacts")
        for name in STORE_CALLS:
            self._patch(artifacts, f"ArtifactStore.{name}",
                        functools.partial(self._wrap, "store", None))
        self._patch(artifacts, "ArtifactStore.__init__", self._wrap_store)
        return self

    def _patch(self, module, attr: str, make: Callable) -> None:
        owner = module
        name = attr
        if "." in attr:
            class_name, name = attr.split(".")
            owner = getattr(module, class_name)
        setattr(owner, name, make(getattr(owner, name)))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, bucket: str, count: Optional[str], fn: Callable):
        # The hot wrapper (EUF's ``int_value_of`` alone sees ~100k calls
        # per port), so the thread-local lookup is inlined.
        timer = self
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = timer._thread().stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                table = local.table
                table.self_s[bucket] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count is not None:
                    table.counts[count] += 1
        return wrapper

    def _wrap_store(self, fn: Callable):
        """``ArtifactStore.__init__``: remember the store for its counters.
        A project check opens one store per module session, so the
        checking session's own store does not see the whole traffic."""
        timer = self

        @functools.wraps(fn)
        def wrapper(store, *args, **kwargs):
            fn(store, *args, **kwargs)
            with timer._lock:
                timer.stores.append(store)
        return wrapper

    def store_counters(self) -> Dict[str, int]:
        """Hits and misses summed over every store's own ``counters()``."""
        with self._lock:
            counters = [store.counters() for store in self.stores]
        return {"store.hits": sum(c["hits"] for c in counters),
                "store.misses": sum(c["misses"] for c in counters)}

    def _wrap_constraints(self, fn: Callable):
        """``Workspace.constraints``: core time plus the implications it
        generated."""
        timed = self._wrap("core.constraints", None, fn)
        timer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stage = timed(*args, **kwargs)
            timer._thread().table.counts["core.implications"] += \
                stage.num_implications
            return stage
        return wrapper

    def _wrap_core(self, fn: Callable):
        """``check_with_core``: marks the thread as minimising a core."""
        timed = self._wrap("smt.theory", "smt.theory.core_calls", fn)
        timer = self

        @functools.wraps(fn)
        def wrapper(literals):
            local = timer._thread()
            local.core_checks = 0
            try:
                return timed(literals)
            finally:
                local.core_checks = -1
        return wrapper

    def _wrap_check_literals(self, fn: Callable):
        """``check_literals``: theory time, plus the minimisation share —
        every call ``check_with_core`` makes after its first one."""
        timed = self._wrap("smt.theory", "smt.theory.checks", fn)
        timer = self

        @functools.wraps(fn)
        def wrapper(literals):
            local = timer._thread()
            if local.core_checks < 0:
                return timed(literals)
            local.core_checks += 1
            if local.core_checks == 1:
                return timed(literals)
            start = time.perf_counter()
            try:
                return timed(literals)
            finally:
                local.table.minimise_s += time.perf_counter() - start
                local.table.counts["smt.theory.minimise_checks"] += 1
        return wrapper

    def _wrap_request(self, fn: Callable):
        """``ServiceCore.execute``: the per-request boundary in a server."""
        timed = self._wrap("service", None, fn)
        timer = self

        @functools.wraps(fn)
        def wrapper(core, request, *args, **kwargs):
            if request.method != "update":
                return fn(core, request, *args, **kwargs)
            # An update needs an open document, so its tenant exists.
            solver = core.manager.get(core.tenant_name(request)) \
                .workspace.solver
            before = solver.stats.copy()
            local = timer._thread()
            outer = local.table
            local.table = _Table()
            start = time.perf_counter()
            try:
                return timed(core, request, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                finished = local.table
                local.table = outer
                delta = solver.stats.delta_since(before)
                for name in SOLVER_COUNTS:
                    finished.counts[f"smt.{name}"] += getattr(delta, name)
                with timer._lock:
                    timer.requests.merge(finished)
                    timer.requests_seen += 1
                    timer.requests_s += elapsed
        return wrapper

    # -- results -----------------------------------------------------------

    def table(self) -> dict:
        """Every thread's accumulated self-times and counts (cold mode)."""
        merged = _Table()
        with self._lock:
            for table in self._tables:
                merged.merge(table)
        merged.counts.update(self.store_counters())
        return _render(merged)

    def request_table(self) -> dict:
        """The finished ``update`` requests only (server mode).  Store
        counters are whole-process: a server without a store reports 0."""
        with self._lock:
            table = _render(self.requests)
            table["requests"] = self.requests_seen
            table["requests_s"] = self.requests_s
        table.update(self.store_counters())
        return table


def _render(table: _Table) -> dict:
    out = {f"{bucket}.self_s": table.self_s[bucket] for bucket in BUCKETS}
    out.update({name: table.counts.get(name, 0) for name in COUNTS})
    out.update(table.counts)
    out["smt.theory.minimise_s"] = table.minimise_s
    return out
