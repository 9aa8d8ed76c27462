"""Typed results of a project (multi-module) check."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.result import BatchResult, CheckResult, total_timings
from repro.node import field


class ProjectResult(BatchResult):
    """Aggregate outcome of checking a module graph.

    A :class:`repro.core.result.BatchResult` whose ``results`` are the
    modules, ordered by path (stable across runs); ``ranks`` carries the
    topological rank each acyclic module was checked at and ``cyclic`` the
    modules skipped over an import cycle.
    """

    ranks: Dict[str, int] = field(default_factory=dict)
    cyclic: List[str] = field(default_factory=list)

    @property
    def num_modules(self) -> int:
        return self.num_files

    @property
    def num_batches(self) -> int:
        return len(set(self.ranks.values()))

    def result_for(self, path: str) -> Optional[CheckResult]:
        for result in self.results:
            if result.filename == path:
                return result
        return None

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
