"""End-to-end SMT equivalence over the real benchmark workloads.

The incremental-context engine must be *observationally identical* to the
fresh-solver reference (:class:`test_smt_fuzz.FreshSolver`, injected as a
session's solver) on every benchmark port and module project: byte-equal
diagnostics, byte-equal inferred kappa refinements, the same verdicts — and
it must get there with strictly fewer SAT searches (``sat_calls``).  This is
the system-level counterpart of the per-formula differential fuzzer in
``test_smt_fuzz.py``; ``repro bench smt`` gates the engine's own counters.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import bench
from repro.core import workspace
from repro.core.session import Session
from test_smt_fuzz import FreshSolver

PROGRAMS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "programs"
MODULES = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "modules"


def comparable(result) -> tuple:
    """Diagnostics and kappa solutions, rendered byte-comparably."""
    return (
        [d.to_dict() for d in result.diagnostics],
        {name: [str(q) for q in quals]
         for name, quals in sorted(result.kappa_solution.items())},
    )


def check_both(source: str, filename: str = "<input>") -> tuple:
    """``source`` checked by the reference, then by the default engine."""
    fresh = Session(solver=FreshSolver()).check_source(source, filename)
    incremental = Session().check_source(source, filename)
    return fresh, incremental


@pytest.mark.parametrize("name", bench.BENCHMARKS)
def test_port_equivalence_and_fewer_sat_calls(name):
    source = (PROGRAMS / f"{name}.rsc").read_text()
    fresh, incremental = check_both(source, f"{name}.rsc")

    assert fresh.ok and incremental.ok, f"{name} must verify in both engines"
    assert comparable(incremental) == comparable(fresh), (
        f"{name}: the contexts changed diagnostics or solutions")
    assert incremental.stats.sat_calls < fresh.stats.sat_calls, (
        f"{name}: the contexts issued {incremental.stats.sat_calls} SAT "
        f"searches, the reference {fresh.stats.sat_calls} — the context "
        "layer stopped paying for itself")
    # The context machinery really ran (and was exercised repeatedly).
    assert incremental.stats.contexts_created > 0
    assert incremental.stats.contexts_reused > 0
    assert fresh.stats.contexts_created == 0


@pytest.mark.parametrize("project", bench.MODULE_BENCHMARKS)
def test_module_project_equivalence(project, monkeypatch):
    root = MODULES / project
    incremental = Session().check_project(root)
    # The project's workspace builds its solver from the config; the
    # reference takes the place of the solver class it builds.
    monkeypatch.setattr(workspace, "Solver", FreshSolver)
    fresh = Session().check_project(root)

    assert fresh.ok and incremental.ok
    assert fresh.stats.contexts_created == 0 < incremental.stats.contexts_created
    fresh_by_file = {r.filename: r for r in fresh.results}
    assert len(fresh.results) == len(incremental.results)
    total_fresh = total_incremental = 0
    for result in incremental.results:
        other = fresh_by_file[result.filename]
        assert comparable(result) == comparable(other), (
            f"{project}/{result.filename}: engines disagree")
        total_fresh += other.stats.sat_calls if other.stats else 0
        total_incremental += result.stats.sat_calls if result.stats else 0
    assert total_incremental < total_fresh, (
        f"{project}: the contexts did not reduce SAT searches "
        f"({total_incremental} vs {total_fresh})")


def test_queries_and_verdict_counters_match_across_modes():
    """`queries`, `valid`/`invalid` and cache behaviour are engine-independent
    by construction (the contexts mirror the reference's caching protocol);
    only the work counters may differ."""
    fresh, incremental = check_both((PROGRAMS / "splay.rsc").read_text())
    for counter in ("queries", "valid", "invalid", "cache_hits"):
        assert getattr(incremental.stats, counter) == \
            getattr(fresh.stats, counter), counter
