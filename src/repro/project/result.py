"""Typed results of a project (multi-module) check."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.result import (CheckResult, SolveStats, total_solve_stats,
                               total_timings)
from repro.smt.solver import SolverStats


@dataclass
class ProjectResult:
    """Aggregate outcome of checking a module graph.

    ``results`` is ordered by module path (stable across runs); ``ranks``
    carries the topological rank each acyclic module was checked at and
    ``cyclic`` the modules skipped over an import cycle.  The interface is
    a superset of :class:`repro.core.result.BatchResult`'s, so callers
    written against batch checking keep working.
    """

    results: List[CheckResult] = field(default_factory=list)
    ranks: Dict[str, int] = field(default_factory=dict)
    cyclic: List[str] = field(default_factory=list)
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
    def num_modules(self) -> int:
        return len(self.results)

    @property
    def num_batches(self) -> int:
        return len(set(self.ranks.values()))

    @property
    def cache_hits(self) -> int:
        return self.stats.cache_hits

    def result_for(self, path: str) -> Optional[CheckResult]:
        for result in self.results:
            if result.filename == path:
                return result
        return None

    @property
    def solve_stats(self) -> SolveStats:
        return total_solve_stats(self.results)

    def summary(self) -> str:
        status = "SAFE" if self.ok else "UNSAFE"
        unsafe = sum(0 if r.ok else 1 for r in self.results)
        skipped = (f", {len(self.cyclic)} on an import cycle"
                   if self.cyclic else "")
        return (f"{status}: {self.num_modules} module(s) in "
                f"{self.num_batches} batch(es), {unsafe} unsafe{skipped}, "
                f"{self.num_errors} error(s) in {self.time_seconds:.2f}s")

    def to_dict(self) -> dict:
        return {
            "status": "SAFE" if self.ok else "UNSAFE",
            "ok": self.ok,
            "num_modules": self.num_modules,
            "num_errors": self.num_errors,
            "ranks": dict(sorted(self.ranks.items())),
            "cyclic": list(self.cyclic),
            "time_seconds": self.time_seconds,
            "solver_stats": self.stats.to_dict(),
            "solve_stats": self.solve_stats.to_dict(),
            "timings": total_timings(self.results).to_dict(),
            "modules": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
