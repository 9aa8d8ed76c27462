"""Configuration for a checking session.

A :class:`CheckConfig` captures everything that varies between checking
runs — fixpoint budget, qualifier-pool selection, SMT solver options,
store and service settings — so that a
:class:`repro.core.session.Session` can be constructed once and reused
across many files.  Configs are immutable; derive variants with
:func:`dataclasses.replace`.

A config sets budgets, pools and outputs, never an engine: there is one
fixpoint engine (the worklist in :mod:`repro.core.liquid.fixpoint`) and one
SMT engine (the persistent contexts behind :class:`repro.smt.Solver`).
Their reference engines live in the test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

#: Qualifier-pool selections understood by :class:`CheckConfig`.
QUALIFIER_SETS: Tuple[str, ...] = ("default", "harvested")

#: Persistent artifact store modes (see :mod:`repro.store`):
#: ``"readwrite"`` serves hits and writes back finished artifacts,
#: ``"readonly"`` serves hits but never writes (shared pre-populated
#: caches), ``"off"`` ignores ``store_path`` entirely.
STORE_MODES: Tuple[str, ...] = ("readwrite", "readonly", "off")


@dataclass(frozen=True)
class SolverOptions:
    """Options forwarded to the SMT substrate (:class:`repro.smt.Solver`).

    ``context_cache_limit`` bounds the LRU of persistent solver contexts
    (one per distinct hypothesis environment; evicted contexts rebuild cheaply from the solver's theory
    lemma memo).
    """

    max_theory_iterations: int = 5000
    cache_results: bool = True
    cache_size_limit: int = 200_000
    context_cache_limit: int = 64

    def __post_init__(self) -> None:
        if self.max_theory_iterations < 1:
            raise ValueError("max_theory_iterations must be positive")
        if self.cache_size_limit < 0:
            raise ValueError("cache_size_limit must be non-negative")
        if self.context_cache_limit < 1:
            raise ValueError("context_cache_limit must be positive")

    def to_dict(self) -> dict:
        return {
            "max_theory_iterations": self.max_theory_iterations,
            "cache_results": self.cache_results,
            "cache_size_limit": self.cache_size_limit,
            "context_cache_limit": self.context_cache_limit,
        }


@dataclass(frozen=True)
class ServiceOptions:
    """Options for the multi-tenant check service (:mod:`repro.service`).

    * ``max_tenants`` — how many tenant workspaces the session manager keeps
      alive; past the cap the least-recently-used idle tenant is evicted
      (its documents close, its solver is dropped — a later request under
      the same tenant name starts cold).
    * ``queue_limit`` — per-tenant bound on queued-but-not-started requests;
      a request arriving over the limit is rejected immediately with a
      ``backpressure`` error instead of being buffered without bound.
    * ``workers`` — size of the thread pool executing checks across all
      tenants (checks are CPU-bound; the asyncio loop only does I/O and
      scheduling).
    * ``latency_window`` — how many recent per-request latencies each tenant
      retains for the ``stats`` method's p50/p99 percentiles.
    """

    max_tenants: int = 8
    queue_limit: int = 16
    workers: int = 4
    latency_window: int = 512

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError("max_tenants must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.latency_window < 1:
            raise ValueError("latency_window must be positive")

    def to_dict(self) -> dict:
        return {
            "max_tenants": self.max_tenants,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "latency_window": self.latency_window,
        }


@dataclass(frozen=True)
class ObsOptions:
    """Observability options (:mod:`repro.obs`).

    * ``trace_path`` — where the CLI exports the Chrome trace-event JSON;
      ``None`` leaves tracing disabled (unless the ``REPRO_TRACE``
      environment variable enables it process-wide).
    * ``slow_query_limit`` — how many of the slowest SMT implications the
      tracer's slow-query log retains.

    Deliberately excluded from the store's config fingerprint: tracing
    never affects verdicts, so traced and untraced runs share artifacts.
    """

    trace_path: Optional[str] = None
    slow_query_limit: int = 10

    def __post_init__(self) -> None:
        if self.slow_query_limit < 1:
            raise ValueError("slow_query_limit must be positive")

    def to_dict(self) -> dict:
        return {
            "trace_path": self.trace_path,
            "slow_query_limit": self.slow_query_limit,
        }


@dataclass(frozen=True)
class CheckConfig:
    """Immutable configuration shared by every check in a session.

    * ``max_fixpoint_iterations`` — budget for the liquid fixpoint loop.
    * ``warnings_as_errors`` — promote warnings to errors in the verdict.
    * ``qualifier_set`` — ``"default"`` (built-in pool plus qualifiers
      harvested from the program) or ``"harvested"`` (program-derived
      qualifiers only; useful to measure how much the built-ins contribute).
    * ``solver`` — SMT substrate options (:class:`SolverOptions`).
    * ``jobs`` — worker processes of :meth:`Session.check_files` (each
      worker checks with its own solver, so cache amortisation is per
      worker).  Project builds are sequential and ignore it.
    * ``document_cache_limit`` — how many content-hash snapshots each open
      document keeps (bounds workspace memory; the most recent snapshot is
      always retained).
    * ``store_path`` — directory of the persistent content-addressed
      artifact store (:mod:`repro.store`); ``None`` (the default) disables
      it.  ``"local://PATH"`` means ``PATH``; any other scheme is rejected.
    * ``store_mode`` — ``"readwrite"`` (the default: load artifacts and
      write back finished checks), ``"readonly"`` (load only) or ``"off"``
      (ignore ``store_path``).
    * ``service`` — multi-tenant serve-layer options
      (:class:`ServiceOptions`); inert outside :mod:`repro.service`.
    * ``obs`` — tracing options (:class:`ObsOptions`); never
      verdict-affecting.
    """

    max_fixpoint_iterations: int = 40
    warnings_as_errors: bool = False
    qualifier_set: str = "default"
    solver: SolverOptions = field(default_factory=SolverOptions)
    jobs: int = 1
    document_cache_limit: int = 8
    store_path: Optional[str] = None
    store_mode: str = "readwrite"
    service: ServiceOptions = field(default_factory=ServiceOptions)
    obs: ObsOptions = field(default_factory=ObsOptions)

    def __post_init__(self) -> None:
        if self.max_fixpoint_iterations < 1:
            raise ValueError("max_fixpoint_iterations must be positive")
        if self.qualifier_set not in QUALIFIER_SETS:
            raise ValueError(
                f"unknown qualifier_set {self.qualifier_set!r} "
                f"(expected one of {', '.join(QUALIFIER_SETS)})")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.document_cache_limit < 1:
            raise ValueError("document_cache_limit must be positive")
        if self.store_mode not in STORE_MODES:
            raise ValueError(
                f"unknown store_mode {self.store_mode!r} "
                f"(expected one of {', '.join(STORE_MODES)})")
        if self.store_path is not None:
            # Only a config that names a store loads the store package.
            from repro.store.local import store_root
            store_root(self.store_path)

    def with_options(self, **changes) -> "CheckConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "max_fixpoint_iterations": self.max_fixpoint_iterations,
            "warnings_as_errors": self.warnings_as_errors,
            "qualifier_set": self.qualifier_set,
            "solver": self.solver.to_dict(),
            "jobs": self.jobs,
            "document_cache_limit": self.document_cache_limit,
            "store_path": self.store_path,
            "store_mode": self.store_mode,
            "service": self.service.to_dict(),
            "obs": self.obs.to_dict(),
        }
