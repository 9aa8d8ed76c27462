"""Typed result objects produced by the checking pipeline.

:class:`CheckResult` is the per-program verdict (diagnostics with stable
error codes, typed solver statistics, per-stage timings) and
:class:`BatchResult` aggregates many of them for multi-file runs.  Both are
JSON-serialisable via ``to_dict``/``to_json`` so that driver loops (CI,
benchmark harnesses, generate-and-check clients) get machine-readable
verdicts instead of parsing printed strings.

The counter classes (:class:`SolveStats` here, ``SolverStats`` in
:mod:`repro.smt.solver`) are plain records of numbers: their
``merge`` and ``to_dict`` walk the record fields, so a new counter is
one field declaration.  :func:`total_solve_stats` and
:func:`total_timings` are the aggregations over a list of results.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import Diagnostic, Severity
from repro.logic.terms import Expr
from repro.node import Record, field
from repro.smt.solver import Counters, SolverStats

#: Pipeline stage names, in execution order.
STAGES = ("parse", "ssa", "constraints", "solve", "verify")


class SolveStats(Counters):
    """Typed counters from one liquid-fixpoint run (the ``solve`` stage).

    ``rounds`` counts scheduler steps (individual worklist visits).
    ``queries_pruned`` counts candidate qualifiers discharged without an SMT
    query (syntactic tautologies and inconsistent hypotheses);
    ``cache_hits`` is the solver-cache delta observed while solving.

    The SMT-context counters are likewise solver deltas observed during the
    solve: ``contexts_created`` / ``contexts_reused`` count persistent
    assumption-based solver contexts built vs served from the LRU,
    ``clauses_learned`` counts CDCL-learned clauses, and
    ``lemmas_reused`` counts theory conflicts answered from the cross-context
    lemma memo without re-running a theory check.

    The incremental-workspace counters describe warm starts:
    ``warm_starts`` is 1 when the solve reused a previous solution,
    ``declarations_rechecked``/``declarations_reused`` count the constraint
    partitions (checkable declarations) the edit invalidated vs. the ones
    whose solved refinements and obligation verdicts were carried over.
    """

    kappas: int = 0
    horn_implications: int = 0
    sccs: int = 0
    rounds: int = 0
    queries_issued: int = 0
    queries_pruned: int = 0
    cache_hits: int = 0
    contexts_created: int = 0
    contexts_reused: int = 0
    clauses_learned: int = 0
    lemmas_reused: int = 0
    warm_starts: int = 0
    declarations_rechecked: int = 0
    declarations_reused: int = 0


def total_solve_stats(results: List["CheckResult"]) -> SolveStats:
    """The fixpoint counters of ``results``, summed (unsolved ones skipped)."""
    total = SolveStats()
    for result in results:
        if result.solve_stats is not None:
            total.merge(result.solve_stats)
    return total


class StageTimings(Record):
    """Wall-clock seconds spent in each pipeline stage."""

    parse: float = 0.0
    ssa: float = 0.0
    constraints: float = 0.0
    solve: float = 0.0
    verify: float = 0.0

    @property
    def total(self) -> float:
        return self.parse + self.ssa + self.constraints + self.solve + self.verify

    def record(self, stage: str, seconds: float) -> None:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        setattr(self, stage, getattr(self, stage) + seconds)

    def to_dict(self) -> dict:
        out = {stage: getattr(self, stage) for stage in STAGES}
        out["total"] = self.total
        return out


def total_timings(results: List["CheckResult"]) -> StageTimings:
    """The per-stage seconds of ``results``, summed."""
    total = StageTimings()
    for result in results:
        for stage in STAGES:
            total.record(stage, getattr(result.timings, stage))
    return total


class CheckResult(Record):
    """The outcome of checking one program."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    checker_stats: Optional[object] = None
    stats: Optional[SolverStats] = None
    solve_stats: Optional[SolveStats] = None
    kappa_solution: Dict[str, List[Expr]] = field(default_factory=dict)
    num_constraints: int = 0
    num_implications: int = 0
    num_obligations_checked: int = 0
    time_seconds: float = 0.0
    filename: str = "<input>"
    timings: StageTimings = field(default_factory=StageTimings)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def status(self) -> str:
        return "SAFE" if self.ok else "UNSAFE"

    def summary(self) -> str:
        return (f"{self.status}: {len(self.errors)} error(s), "
                f"{len(self.warnings)} warning(s), "
                f"{self.num_obligations_checked} obligation(s) in "
                f"{self.time_seconds:.2f}s")

    def to_dict(self) -> dict:
        return {
            "file": self.filename,
            "status": self.status,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "num_constraints": self.num_constraints,
            "num_implications": self.num_implications,
            "num_obligations_checked": self.num_obligations_checked,
            "time_seconds": self.time_seconds,
            "timings": self.timings.to_dict(),
            "checker_stats": (self.checker_stats.to_dict()
                              if isinstance(self.checker_stats, Counters)
                              else None),
            "solver_stats": self.stats.to_dict() if self.stats else None,
            "solve_stats": (self.solve_stats.to_dict()
                            if self.solve_stats else None),
            "kappas": {name: [str(q) for q in quals]
                       for name, quals in sorted(self.kappa_solution.items())},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class BatchResult(Record):
    """Aggregate outcome of checking several files in one session."""

    results: List[CheckResult] = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)
    time_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def num_errors(self) -> int:
        return sum(len(r.errors) for r in self.results)

    @property
    def num_files(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        """Solver-cache hits accumulated over the whole batch — non-zero
        whenever the shared session solver amortised obligations across
        files."""
        return self.stats.cache_hits

    @property
    def solve_stats(self) -> SolveStats:
        """Fixpoint-engine counters aggregated over every checked file."""
        return total_solve_stats(self.results)

    def summary(self) -> str:
        status = "SAFE" if self.ok else "UNSAFE"
        unsafe = sum(0 if r.ok else 1 for r in self.results)
        return (f"{status}: {self.num_files} file(s), {unsafe} unsafe, "
                f"{self.num_errors} error(s), {self.stats.queries} solver "
                f"quer(ies), {self.cache_hits} cache hit(s) in "
                f"{self.time_seconds:.2f}s")

    def to_dict(self) -> dict:
        return {
            "status": "SAFE" if self.ok else "UNSAFE",
            "ok": self.ok,
            "num_files": self.num_files,
            "num_errors": self.num_errors,
            "time_seconds": self.time_seconds,
            "solver_stats": self.stats.to_dict(),
            "solve_stats": self.solve_stats.to_dict(),
            "timings": total_timings(self.results).to_dict(),
            "files": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
