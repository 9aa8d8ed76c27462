"""Benchmark support: regenerating the paper's evaluation tables.

Figure 6 reports, per benchmark: LOC, the number of trivial (T), mutability
(M) and refinement (R) annotations, and the checking time.  Figure 7 reports
the number of changed lines needed to port each benchmark (ImpDiff/AllDiff).

Our ports are written directly in nanoTS, so the annotation counts are
measured from the sources by the same classification the paper uses:

* **T** — trivial annotations: plain TypeScript-style types (no refinement,
  no mutability qualifier),
* **M** — annotations that carry a mutability qualifier (``immutable``,
  ``IArray``/``Array<IM, _>``, ``@Mutable``-style method annotations),
* **R** — annotations whose type mentions a refinement (``{v: ... | ...}``,
  a refined alias such as ``idx<a>``/``grid<w,h>``, or a ghost ``declare``).

The ImpDiff/AllDiff columns of Figure 7 describe the effort of porting the
original JavaScript to RSC; for our nanoTS ports these were recorded while
the ports were written and are stored in :data:`CODE_CHANGES`.

All checking goes through one shared :class:`repro.Session`, so a Figure 6
run amortises a single solver (and its query cache) across all seven
benchmarks — pass an explicit session to :func:`check_benchmark` to control
the lifetime yourself.

A Figure 6 run also reports the liquid-fixpoint engine's counters and a
before/after comparison of the worklist scheduler against the reference
naive global-round loop (:func:`figure6_with_comparison`); the machine
readable report (:func:`fixpoint_report`) is what ``repro bench figure6``
dumps as ``BENCH_fixpoint.json`` and what CI diffs against
``benchmarks/baseline.json``.

``repro bench smt`` (:func:`smt_mode_rows`) runs every port under both SMT
engines — a fresh solver per query vs persistent assumption-based contexts
— asserting byte-identical verdicts and reporting the SAT-search savings;
the report lands in ``BENCH_smt.json`` and is gated against the baseline's
``smt`` section.
"""

from __future__ import annotations

import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import CheckConfig
from repro.core.session import Session
from repro.core.workspace import Workspace

#: Paper's Figure 6 numbers: benchmark -> (LOC, T, M, R, time seconds)
PAPER_FIGURE6: Dict[str, tuple] = {
    "navier-stokes": (366, 3, 18, 39, 473),
    "splay": (206, 18, 2, 0, 6),
    "richards": (304, 61, 5, 17, 7),
    "raytrace": (576, 68, 14, 2, 15),
    "transducers": (588, 138, 13, 11, 12),
    "d3-arrays": (189, 36, 4, 10, 37),
    "tsc-checker": (293, 10, 48, 12, 62),
}

#: Paper's Figure 7 numbers: benchmark -> (LOC, ImpDiff, AllDiff)
PAPER_FIGURE7: Dict[str, tuple] = {
    "navier-stokes": (366, 79, 160),
    "splay": (206, 58, 64),
    "richards": (304, 52, 108),
    "raytrace": (576, 93, 145),
    "transducers": (588, 170, 418),
    "d3-arrays": (189, 8, 110),
    "tsc-checker": (293, 9, 47),
}

#: Code-change counts recorded while porting the benchmarks to nanoTS
#: (important restructurings vs. all changed lines), mirroring Figure 7.
CODE_CHANGES: Dict[str, tuple] = {
    "navier-stokes": (14, 36),
    "splay": (9, 15),
    "richards": (8, 21),
    "raytrace": (10, 22),
    "transducers": (11, 27),
    "d3-arrays": (3, 14),
    "tsc-checker": (4, 16),
}

BENCHMARKS = list(PAPER_FIGURE6.keys())

_REFINEMENT_MARKERS = re.compile(
    r"\{\s*v\s*:|idx<|grid<|okW|okH|len\(|mask\(|impl\(|flagsT|rgb\b|nat\b|pos\b")
_MUTABILITY_MARKERS = re.compile(
    r"\bimmutable\b|\bIArray\b|\bROArray\b|\bUArray\b|Array<\s*(IM|MU|RO|UQ)")


def default_programs_dir() -> pathlib.Path:
    """Locate ``benchmarks/programs`` (env override, cwd, then repo root)."""
    env = os.environ.get("RSC_BENCH_PROGRAMS")
    candidates = [pathlib.Path(env)] if env else []
    candidates.append(pathlib.Path.cwd() / "benchmarks" / "programs")
    candidates.append(pathlib.Path(__file__).resolve().parents[2]
                      / "benchmarks" / "programs")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the benchmark programs directory; set "
        "RSC_BENCH_PROGRAMS or run from the repository root")


@dataclass
class BenchmarkRow:
    name: str
    loc: int
    trivial: int
    mutability: int
    refinements: int
    time_seconds: float
    errors: int
    safe: bool
    queries: int = 0            # SMT validity/sat queries issued for this file
    solve_rounds: int = 0       # fixpoint scheduler steps
    queries_pruned: int = 0     # candidates discharged without an SMT query
    cache_hits: int = 0         # solver-cache hits while checking this file

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "loc": self.loc,
            "trivial": self.trivial,
            "mutability": self.mutability,
            "refinements": self.refinements,
            "time_seconds": self.time_seconds,
            "errors": self.errors,
            "safe": self.safe,
            "queries": self.queries,
            "solve_rounds": self.solve_rounds,
            "queries_pruned": self.queries_pruned,
            "cache_hits": self.cache_hits,
        }


@dataclass
class FixpointComparison:
    """Per-benchmark before/after numbers: naive rounds vs the worklist."""

    name: str
    naive_queries: int
    worklist_queries: int
    naive_time_seconds: float
    worklist_time_seconds: float
    rounds: int
    queries_pruned: int
    cache_hits: int
    safe: bool

    @property
    def query_reduction(self) -> float:
        """Fraction of the naive engine's solve queries the worklist avoided."""
        if self.naive_queries == 0:
            return 0.0
        return 1.0 - self.worklist_queries / self.naive_queries

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "naive": {
                "queries": self.naive_queries,
                "time_seconds": self.naive_time_seconds,
            },
            "worklist": {
                "queries": self.worklist_queries,
                "time_seconds": self.worklist_time_seconds,
                "rounds": self.rounds,
                "queries_pruned": self.queries_pruned,
                "cache_hits": self.cache_hits,
            },
            "query_reduction": self.query_reduction,
            "safe": self.safe,
        }


def source_of(name: str,
              programs_dir: Optional[pathlib.Path] = None) -> str:
    directory = programs_dir or default_programs_dir()
    return (directory / f"{name}.rsc").read_text()


def count_loc(source: str) -> int:
    """Non-comment, non-blank lines (the paper uses cloc the same way)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def count_annotations(source: str) -> tuple:
    """Classify every annotation site into (trivial, mutability, refinement).

    Annotation sites are: ``spec``/``declare`` signatures, type alias
    definitions, field declarations, and parameter/return annotations on
    class methods."""
    trivial = mutability = refinements = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        is_annotation = (
            stripped.startswith(("spec ", "declare ", "type "))
            or re.match(r"^(immutable\s+|mutable\s+)?\w+\s*:\s*\S+;?\s*$", stripped)
            or re.search(r"\)\s*:\s*\w+", stripped)
        )
        if not is_annotation:
            continue
        has_refinement = bool(_REFINEMENT_MARKERS.search(stripped))
        has_mutability = bool(_MUTABILITY_MARKERS.search(stripped))
        if stripped.startswith("declare ") or has_refinement:
            refinements += 1
        elif has_mutability:
            mutability += 1
        else:
            trivial += 1
    return trivial, mutability, refinements


_SHARED_SESSION: Optional[Session] = None


def shared_session() -> Session:
    """The module-wide session used when no explicit session is passed.

    One long-lived solver across every benchmark is exactly how Figure 6
    runs are amortised."""
    global _SHARED_SESSION
    if _SHARED_SESSION is None:
        _SHARED_SESSION = Session(CheckConfig())
    return _SHARED_SESSION


def check_benchmark(name: str, session: Optional[Session] = None,
                    programs_dir: Optional[pathlib.Path] = None) -> BenchmarkRow:
    source = source_of(name, programs_dir)
    session = session or shared_session()
    result = session.check_source(source, filename=f"{name}.rsc")
    trivial, mut, refs = count_annotations(source)
    solve = result.solve_stats
    return BenchmarkRow(name=name, loc=count_loc(source), trivial=trivial,
                        mutability=mut, refinements=refs,
                        time_seconds=result.time_seconds,
                        errors=len(result.errors), safe=result.ok,
                        queries=result.stats.queries if result.stats else 0,
                        solve_rounds=solve.rounds if solve else 0,
                        queries_pruned=solve.queries_pruned if solve else 0,
                        cache_hits=result.stats.cache_hits if result.stats else 0)


def figure6_rows(names: Optional[List[str]] = None,
                 session: Optional[Session] = None,
                 programs_dir: Optional[pathlib.Path] = None
                 ) -> List[BenchmarkRow]:
    session = session or shared_session()
    return [check_benchmark(name, session, programs_dir)
            for name in (names or BENCHMARKS)]


def figure6_with_comparison(names: Optional[List[str]] = None,
                            programs_dir: Optional[pathlib.Path] = None
                            ) -> tuple:
    """Run Figure 6 under both fixpoint strategies.

    Returns ``(rows, comparisons)``: the worklist-engine benchmark rows plus
    a per-benchmark :class:`FixpointComparison` against the naive
    global-round engine.  Each strategy gets its own fresh session so the
    query counts are not distorted by the other strategy's solver cache.
    """
    names = list(names or BENCHMARKS)
    worklist = Session(CheckConfig(fixpoint_strategy="worklist"))
    naive = Session(CheckConfig(fixpoint_strategy="naive"))
    rows: List[BenchmarkRow] = []
    comparisons: List[FixpointComparison] = []
    for name in names:
        source = source_of(name, programs_dir)
        filename = f"{name}.rsc"
        naive_result = naive.check_source(source, filename=filename)
        worklist_result = worklist.check_source(source, filename=filename)
        trivial, mut, refs = count_annotations(source)
        solve = worklist_result.solve_stats
        stats = worklist_result.stats
        rows.append(BenchmarkRow(
            name=name, loc=count_loc(source), trivial=trivial,
            mutability=mut, refinements=refs,
            time_seconds=worklist_result.time_seconds,
            errors=len(worklist_result.errors), safe=worklist_result.ok,
            queries=stats.queries if stats else 0,
            solve_rounds=solve.rounds if solve else 0,
            queries_pruned=solve.queries_pruned if solve else 0,
            cache_hits=stats.cache_hits if stats else 0))
        naive_solve = naive_result.solve_stats
        comparisons.append(FixpointComparison(
            name=name,
            naive_queries=naive_solve.queries_issued if naive_solve else 0,
            worklist_queries=solve.queries_issued if solve else 0,
            naive_time_seconds=naive_result.time_seconds,
            worklist_time_seconds=worklist_result.time_seconds,
            rounds=solve.rounds if solve else 0,
            queries_pruned=solve.queries_pruned if solve else 0,
            cache_hits=solve.cache_hits if solve else 0,
            safe=worklist_result.ok and naive_result.ok))
    return rows, comparisons


def format_fixpoint_comparison(comparisons: List[FixpointComparison]) -> str:
    """The before/after table printed under the Figure 6 results."""
    lines = [
        "Fixpoint engine: naive global rounds vs dependency-directed worklist",
        "Benchmark        Queries(naive)  Queries(worklist)  Saved%  "
        "Time(naive)  Time(worklist)",
        "-" * 86,
    ]
    tot_nq = tot_wq = 0
    tot_nt = tot_wt = 0.0
    for cmp in comparisons:
        lines.append(
            f"{cmp.name:15s} {cmp.naive_queries:14d} {cmp.worklist_queries:18d} "
            f"{100 * cmp.query_reduction:6.1f} {cmp.naive_time_seconds:12.2f} "
            f"{cmp.worklist_time_seconds:15.2f}")
        tot_nq += cmp.naive_queries
        tot_wq += cmp.worklist_queries
        tot_nt += cmp.naive_time_seconds
        tot_wt += cmp.worklist_time_seconds
    lines.append("-" * 86)
    saved = 100 * (1.0 - tot_wq / tot_nq) if tot_nq else 0.0
    lines.append(f"{'TOTAL':15s} {tot_nq:14d} {tot_wq:18d} {saved:6.1f} "
                 f"{tot_nt:12.2f} {tot_wt:15.2f}")
    return "\n".join(lines)


#: Schema identifier stamped into fixpoint reports (bump on layout changes).
FIXPOINT_REPORT_SCHEMA = "repro-bench-fixpoint/1"


def fixpoint_report(rows: List[BenchmarkRow],
                    comparisons: List[FixpointComparison]) -> dict:
    """The machine-readable report dumped as ``BENCH_fixpoint.json``."""
    benchmarks = {}
    by_name = {row.name: row for row in rows}
    for cmp in comparisons:
        entry = cmp.to_dict()
        row = by_name.get(cmp.name)
        if row is not None:
            entry["figure6"] = row.to_dict()
        benchmarks[cmp.name] = entry
    return {
        "schema": FIXPOINT_REPORT_SCHEMA,
        "benchmarks": benchmarks,
        "totals": {
            "naive_queries": sum(c.naive_queries for c in comparisons),
            "worklist_queries": sum(c.worklist_queries for c in comparisons),
            "naive_time_seconds": sum(c.naive_time_seconds
                                      for c in comparisons),
            "worklist_time_seconds": sum(c.worklist_time_seconds
                                         for c in comparisons),
        },
    }


def format_figure6(rows: List[BenchmarkRow]) -> str:
    lines = ["Benchmark        LOC    T    M    R   Time(s)  Errors  "
             "Queries  Pruned",
             "-" * 74]
    total_loc = total_t = total_m = total_r = 0
    total_q = total_p = 0
    for row in rows:
        lines.append(f"{row.name:15s} {row.loc:4d} {row.trivial:4d} "
                     f"{row.mutability:4d} {row.refinements:4d} "
                     f"{row.time_seconds:8.2f} {row.errors:6d} "
                     f"{row.queries:8d} {row.queries_pruned:7d}")
        total_loc += row.loc
        total_t += row.trivial
        total_m += row.mutability
        total_r += row.refinements
        total_q += row.queries
        total_p += row.queries_pruned
    lines.append("-" * 74)
    lines.append(f"{'TOTAL':15s} {total_loc:4d} {total_t:4d} {total_m:4d} "
                 f"{total_r:4d} {'':8s} {'':6s} {total_q:8d} {total_p:7d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SMT-mode comparison (`repro bench smt`)
# ---------------------------------------------------------------------------


@dataclass
class SmtModeRow:
    """Fresh-solver vs incremental-context numbers for one benchmark.

    ``identical`` asserts the differential property the incremental engine
    must preserve: byte-identical diagnostics and kappa solutions under both
    modes.  ``sat_calls`` is the comparison metric — SAT search episodes —
    while the context counters explain *why* incremental wins (persistent
    contexts, replayed theory lemmas, propagation-evident refutations).
    """

    name: str
    fresh_sat_calls: int
    incremental_sat_calls: int
    fresh_theory_checks: int
    incremental_theory_checks: int
    fresh_time_seconds: float
    incremental_time_seconds: float
    queries: int
    contexts_created: int
    contexts_reused: int
    clauses_learned: int
    lemmas_reused: int
    identical: bool
    safe: bool

    @property
    def sat_call_reduction(self) -> float:
        """Fraction of the fresh engine's SAT searches incremental avoided."""
        if self.fresh_sat_calls == 0:
            return 0.0
        return 1.0 - self.incremental_sat_calls / self.fresh_sat_calls

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fresh": {
                "sat_calls": self.fresh_sat_calls,
                "theory_checks": self.fresh_theory_checks,
                "time_seconds": self.fresh_time_seconds,
            },
            "incremental": {
                "sat_calls": self.incremental_sat_calls,
                "theory_checks": self.incremental_theory_checks,
                "time_seconds": self.incremental_time_seconds,
                "contexts_created": self.contexts_created,
                "contexts_reused": self.contexts_reused,
                "clauses_learned": self.clauses_learned,
                "lemmas_reused": self.lemmas_reused,
            },
            "queries": self.queries,
            "sat_call_reduction": self.sat_call_reduction,
            "identical": self.identical,
            "safe": self.safe,
        }


def _comparable_verdict(result) -> tuple:
    """The parts of a :class:`CheckResult` that must match across SMT modes:
    every diagnostic (code, message, span, severity) and the solved kappa
    refinements, rendered to strings so the comparison is byte-level."""
    return (
        [d.to_dict() for d in result.diagnostics],
        {name: [str(q) for q in quals]
         for name, quals in sorted(result.kappa_solution.items())},
    )


def smt_mode_rows(names: Optional[List[str]] = None,
                  programs_dir: Optional[pathlib.Path] = None
                  ) -> List[SmtModeRow]:
    """Check every benchmark under both SMT modes and compare.

    Each mode gets its own fresh session (and solver) per benchmark, so the
    counters are not distorted by the other mode's result cache or by
    earlier benchmarks' contexts.
    """
    rows: List[SmtModeRow] = []
    for name in (names or BENCHMARKS):
        source = source_of(name, programs_dir)
        filename = f"{name}.rsc"
        fresh = Session(CheckConfig(smt_mode="fresh")).check_source(
            source, filename=filename)
        incremental = Session(CheckConfig(smt_mode="incremental")).check_source(
            source, filename=filename)
        fs, inc = fresh.stats, incremental.stats
        rows.append(SmtModeRow(
            name=name,
            fresh_sat_calls=fs.sat_calls if fs else 0,
            incremental_sat_calls=inc.sat_calls if inc else 0,
            fresh_theory_checks=fs.theory_checks if fs else 0,
            incremental_theory_checks=inc.theory_checks if inc else 0,
            fresh_time_seconds=fresh.time_seconds,
            incremental_time_seconds=incremental.time_seconds,
            queries=inc.queries if inc else 0,
            contexts_created=inc.contexts_created if inc else 0,
            contexts_reused=inc.contexts_reused if inc else 0,
            clauses_learned=inc.clauses_learned if inc else 0,
            lemmas_reused=inc.lemmas_reused if inc else 0,
            identical=_comparable_verdict(fresh) == _comparable_verdict(
                incremental),
            safe=fresh.ok and incremental.ok))
    return rows


#: Schema identifier stamped into SMT-mode reports.
SMT_REPORT_SCHEMA = "repro-bench-smt/1"


def smt_report(rows: List[SmtModeRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_smt.json``."""
    return {
        "schema": SMT_REPORT_SCHEMA,
        "benchmarks": {row.name: row.to_dict() for row in rows},
        "totals": {
            "fresh_sat_calls": sum(r.fresh_sat_calls for r in rows),
            "incremental_sat_calls": sum(r.incremental_sat_calls
                                         for r in rows),
            "fresh_time_seconds": sum(r.fresh_time_seconds for r in rows),
            "incremental_time_seconds": sum(r.incremental_time_seconds
                                            for r in rows),
        },
    }


def format_smt(rows: List[SmtModeRow]) -> str:
    """The table printed by ``repro bench smt``."""
    lines = [
        "SMT engine: fresh solver per query vs persistent assumption-based "
        "contexts",
        "Benchmark        Sat(fresh)  Sat(incr)  Saved%  Ctx(new/reuse)  "
        "Lemmas  Same  Time(f)  Time(i)",
        "-" * 92,
    ]
    tot_f = tot_i = 0
    tot_ft = tot_it = 0.0
    for row in rows:
        ctx = f"{row.contexts_created}/{row.contexts_reused}"
        lines.append(
            f"{row.name:15s} {row.fresh_sat_calls:11d} "
            f"{row.incremental_sat_calls:10d} "
            f"{100 * row.sat_call_reduction:6.1f} {ctx:>14s} "
            f"{row.lemmas_reused:7d} {'yes' if row.identical else 'NO':>5s} "
            f"{row.fresh_time_seconds:8.2f} "
            f"{row.incremental_time_seconds:8.2f}")
        tot_f += row.fresh_sat_calls
        tot_i += row.incremental_sat_calls
        tot_ft += row.fresh_time_seconds
        tot_it += row.incremental_time_seconds
    lines.append("-" * 92)
    saved = 100 * (1.0 - tot_i / tot_f) if tot_f else 0.0
    lines.append(f"{'TOTAL':15s} {tot_f:11d} {tot_i:10d} {saved:6.1f} "
                 f"{'':14s} {'':7s} {'':5s} {tot_ft:8.2f} {tot_it:8.2f}")
    return "\n".join(lines)


#: Function edited by the scripted ``incremental`` scenario, per benchmark.
#: The edit inserts a harmless statement at the top of this function's body,
#: dirtying exactly one declaration while the program keeps verifying.
EDIT_TARGETS: Dict[str, str] = {
    "navier-stokes": "diffuse",
    "splay": "findMax",
    "richards": "runnableCount",
    "raytrace": "closestHit",
    "transducers": "sum",
    "d3-arrays": "min",
    "tsc-checker": "countMembers",
}


def edit_function_body(source: str, name: str, marker: int = 0) -> str:
    """Insert a no-op statement at the start of function ``name``'s body.

    Distinct ``marker`` values produce distinct program texts (and so
    distinct content hashes) that still dirty exactly the same declaration
    — how the serve bench fabricates fresh superseding edits.
    """
    pattern = re.compile(rf"(function\s+{re.escape(name)}\s*\([^)]*\)\s*\{{)")
    edited, count = pattern.subn(rf"\1 var __bench_edit = {marker};",
                                 source, count=1)
    if count != 1:
        raise ValueError(f"cannot find function {name!r} to edit")
    return edited


def scripted_edits(name: str, source: str) -> List[tuple]:
    """The ``(label, text)`` edit sequence the incremental bench replays.

    * ``comment`` — whitespace/comment-only change: the AST is unchanged, so
      every declaration's artifacts must be reused (0 solve queries).
    * ``body`` — one declaration's body changes: only that partition is
      re-solved, warm-started from the previous solution.
    * ``revert`` — back to the original text: served from the per-document
      content-hash artifact cache without running the pipeline at all.
    """
    return [
        ("comment", source + "\n// bench: comment-only edit\n"),
        ("body", edit_function_body(source, EDIT_TARGETS[name])),
        ("revert", source),
    ]


@dataclass
class IncrementalEdit:
    """Counters for one replayed edit of the incremental scenario."""

    label: str
    queries: int
    time_seconds: float
    warm: bool
    declarations_rechecked: int
    declarations_reused: int
    safe: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "queries": self.queries,
            "time_seconds": self.time_seconds,
            "warm": self.warm,
            "declarations_rechecked": self.declarations_rechecked,
            "declarations_reused": self.declarations_reused,
            "safe": self.safe,
        }


@dataclass
class IncrementalRow:
    """Cold-check vs. edit-replay numbers for one benchmark."""

    name: str
    cold_queries: int
    cold_time_seconds: float
    edits: List[IncrementalEdit] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return all(edit.safe for edit in self.edits)

    @property
    def body_edit(self) -> Optional[IncrementalEdit]:
        for edit in self.edits:
            if edit.label == "body":
                return edit
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cold": {
                "queries": self.cold_queries,
                "time_seconds": self.cold_time_seconds,
            },
            "edits": [edit.to_dict() for edit in self.edits],
            "safe": self.safe,
        }


def incremental_rows(names: Optional[List[str]] = None,
                     programs_dir: Optional[pathlib.Path] = None
                     ) -> List[IncrementalRow]:
    """Replay the scripted edit sequence per benchmark through a workspace.

    Each benchmark gets a fresh :class:`repro.Workspace` (cold solver) so
    the cold-open numbers are comparable across runs; the per-edit numbers
    then show what the incremental machinery saves inside one editing loop.
    """
    rows: List[IncrementalRow] = []
    for name in (names or BENCHMARKS):
        source = source_of(name, programs_dir)
        uri = f"{name}.rsc"
        workspace = Workspace(CheckConfig())
        cold = workspace.open(uri, source)
        row = IncrementalRow(
            name=name,
            cold_queries=cold.stats.queries if cold.stats else 0,
            cold_time_seconds=cold.time_seconds)
        for label, text in scripted_edits(name, source):
            result = workspace.update(uri, text)
            solve = result.solve_stats
            row.edits.append(IncrementalEdit(
                label=label,
                queries=result.stats.queries if result.stats else 0,
                time_seconds=result.time_seconds,
                warm=bool(solve and solve.warm_starts),
                declarations_rechecked=(solve.declarations_rechecked
                                        if solve else 0),
                declarations_reused=solve.declarations_reused if solve else 0,
                safe=result.ok))
        rows.append(row)
    return rows


#: Schema identifier stamped into incremental reports.
INCREMENTAL_REPORT_SCHEMA = "repro-bench-incremental/1"


def incremental_report(rows: List[IncrementalRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_incremental.json``."""
    body_total = sum(r.body_edit.queries for r in rows if r.body_edit)
    return {
        "schema": INCREMENTAL_REPORT_SCHEMA,
        "benchmarks": {row.name: row.to_dict() for row in rows},
        "totals": {
            "cold_queries": sum(r.cold_queries for r in rows),
            "body_edit_queries": body_total,
        },
    }


def format_incremental(rows: List[IncrementalRow]) -> str:
    """The edit-recheck table printed by ``repro bench incremental``."""
    lines = [
        "Incremental re-check: cold open vs scripted edits "
        "(comment-only / one body / revert)",
        "Benchmark        Cold-q  Comment-q  Body-q  Saved%  Re/Reused  "
        "Cold(s)  Body(s)",
        "-" * 82,
    ]
    tot_cold = tot_body = 0
    for row in rows:
        by_label = {edit.label: edit for edit in row.edits}
        comment = by_label.get("comment")
        body = by_label.get("body")
        saved = (100 * (1 - body.queries / row.cold_queries)
                 if body and row.cold_queries else 0.0)
        rechecked = body.declarations_rechecked if body else 0
        reused = body.declarations_reused if body else 0
        lines.append(
            f"{row.name:15s} {row.cold_queries:7d} "
            f"{comment.queries if comment else 0:10d} "
            f"{body.queries if body else 0:7d} {saved:6.1f} "
            f"{rechecked:4d}/{reused:<4d} "
            f"{row.cold_time_seconds:8.2f} "
            f"{body.time_seconds if body else 0.0:8.2f}")
        tot_cold += row.cold_queries
        tot_body += body.queries if body else 0
    lines.append("-" * 82)
    saved = 100 * (1 - tot_body / tot_cold) if tot_cold else 0.0
    lines.append(f"{'TOTAL':15s} {tot_cold:7d} {'':10s} {tot_body:7d} "
                 f"{saved:6.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# module-split benchmarks (`repro bench modules`)
# ---------------------------------------------------------------------------

#: Benchmark ports that exist as multi-module splits under
#: ``benchmarks/modules/<name>/``.
MODULE_BENCHMARKS = ["d3-arrays", "splay"]

#: Body-only edit per module benchmark: (module file, function to edit).
#: Must re-check exactly one module — the edit stops at the module boundary.
MODULE_BODY_EDITS: Dict[str, tuple] = {
    "d3-arrays": ("extrema.rsc", "min"),
    "splay": ("stats.rsc", "findMax"),
}

#: Signature edit per module benchmark: (module file, old line, new line).
#: Rewrites an exported alias to an equivalent-but-different refinement, so
#: the interface fingerprint moves, every transitive dependent re-checks,
#: and the project still verifies.
MODULE_SIG_EDITS: Dict[str, tuple] = {
    "d3-arrays": ("types.rsc",
                  "export type NEArray<T> = {v: T[] | 0 < len(v)};",
                  "export type NEArray<T> = {v: T[] | 1 <= len(v)};"),
    "splay": ("types.rsc",
              "export type nat = {v: number | 0 <= v};",
              "export type nat = {v: number | v >= 0};"),
}


def default_modules_dir() -> pathlib.Path:
    """Locate ``benchmarks/modules`` (env override, cwd, then repo root)."""
    env = os.environ.get("RSC_BENCH_MODULES")
    candidates = [pathlib.Path(env)] if env else []
    candidates.append(pathlib.Path.cwd() / "benchmarks" / "modules")
    candidates.append(pathlib.Path(__file__).resolve().parents[2]
                      / "benchmarks" / "modules")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the module benchmarks directory; set "
        "RSC_BENCH_MODULES or run from the repository root")


@dataclass
class ModulesRow:
    """Cold project build vs scripted module edits for one split port."""

    name: str
    modules: int
    batches: int
    cold_queries: int
    cold_time_seconds: float
    body_module: str = ""
    body_rechecked: int = 0
    body_queries: int = 0
    body_warm: bool = False
    sig_module: str = ""
    sig_rechecked: int = 0
    sig_queries: int = 0
    safe: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "modules": self.modules,
            "batches": self.batches,
            "cold": {
                "queries": self.cold_queries,
                "time_seconds": self.cold_time_seconds,
            },
            "body_edit": {
                "module": self.body_module,
                "rechecked": self.body_rechecked,
                "queries": self.body_queries,
                "warm": self.body_warm,
            },
            "sig_edit": {
                "module": self.sig_module,
                "rechecked": self.sig_rechecked,
                "queries": self.sig_queries,
            },
            "safe": self.safe,
        }


def modules_rows(names: Optional[List[str]] = None,
                 modules_dir: Optional[pathlib.Path] = None
                 ) -> List[ModulesRow]:
    """Replay the module-edit scenario per split benchmark.

    For each project: a cold build through a fresh
    :class:`repro.project.ProjectWorkspace`, then a body-only edit of one
    leaf dependency (must re-check exactly that module, warm-started) and a
    signature edit of the shared types module (must re-check its transitive
    dependents, still verifying).
    """
    from repro.project.workspace import ProjectWorkspace

    directory = modules_dir or default_modules_dir()
    rows: List[ModulesRow] = []
    for name in (names or MODULE_BENCHMARKS):
        root = directory / name
        if not root.is_dir():
            raise FileNotFoundError(f"no module benchmark at {root}")
        workspace = ProjectWorkspace(root=root)
        cold = workspace.check()
        row = ModulesRow(
            name=name, modules=cold.num_modules, batches=cold.num_batches,
            cold_queries=cold.stats.queries,
            cold_time_seconds=cold.time_seconds,
            safe=cold.ok)

        body_file, function = MODULE_BODY_EDITS[name]
        body_path = root / body_file
        edited = edit_function_body(body_path.read_text(), function)
        update = workspace.update(body_path, edited)
        edited_result = update.results[str(body_path.resolve())]
        solve = edited_result.solve_stats
        row.body_module = body_file
        row.body_rechecked = len(update.rechecked)
        row.body_queries = update.queries
        row.body_warm = bool(solve and solve.warm_starts)
        row.safe = row.safe and update.ok

        sig_file, old_line, new_line = MODULE_SIG_EDITS[name]
        sig_path = root / sig_file
        source = sig_path.read_text()
        if old_line not in source:
            raise ValueError(f"{name}: signature-edit anchor not found "
                             f"in {sig_file}")
        update = workspace.update(sig_path, source.replace(old_line, new_line))
        row.sig_module = sig_file
        row.sig_rechecked = len(update.rechecked)
        row.sig_queries = update.queries
        row.safe = row.safe and update.ok and update.summary_changed
        rows.append(row)
    return rows


#: Schema identifier stamped into module-bench reports.
MODULES_REPORT_SCHEMA = "repro-bench-modules/1"


def modules_report(rows: List[ModulesRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_modules.json``."""
    return {
        "schema": MODULES_REPORT_SCHEMA,
        "benchmarks": {row.name: row.to_dict() for row in rows},
        "totals": {
            "cold_queries": sum(r.cold_queries for r in rows),
            "body_edit_queries": sum(r.body_queries for r in rows),
            "sig_edit_queries": sum(r.sig_queries for r in rows),
        },
    }


def format_modules(rows: List[ModulesRow]) -> str:
    """The table printed by ``repro bench modules``."""
    lines = [
        "Module-graph re-check: cold build vs body-only and signature edits",
        "Project          Mods  Batches  Cold-q  Body-re  Body-q  Warm  "
        "Sig-re  Sig-q",
        "-" * 78,
    ]
    for row in rows:
        lines.append(
            f"{row.name:15s} {row.modules:5d} {row.batches:8d} "
            f"{row.cold_queries:7d} {row.body_rechecked:8d} "
            f"{row.body_queries:7d} {'yes' if row.body_warm else 'no':>5s} "
            f"{row.sig_rechecked:7d} {row.sig_queries:6d}")
    lines.append("-" * 78)
    lines.append(
        f"{'TOTAL':15s} {sum(r.modules for r in rows):5d} {'':8s} "
        f"{sum(r.cold_queries for r in rows):7d} "
        f"{sum(r.body_rechecked for r in rows):8d} "
        f"{sum(r.body_queries for r in rows):7d} {'':5s} "
        f"{sum(r.sig_rechecked for r in rows):7d} "
        f"{sum(r.sig_queries for r in rows):6d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# persistent-store benchmarks (`repro bench store`)
# ---------------------------------------------------------------------------


@dataclass
class StoreRow:
    """Cold-process vs store-warm numbers for one benchmark.

    ``kind`` is ``"file"`` (single-file port through a fresh
    :class:`Session` per run) or ``"project"`` (module split through
    :func:`repro.project.build.check_project`).  The warm run is a *fresh*
    session/build against the store the cold run populated — exactly the
    cross-process replay scenario — and must issue **zero** SMT queries and
    zero SAT searches while producing byte-identical diagnostics and kappa
    solutions (``identical``).
    """

    name: str
    kind: str
    cold_queries: int
    cold_sat_calls: int
    cold_time_seconds: float
    warm_queries: int
    warm_sat_calls: int
    warm_time_seconds: float
    identical: bool
    safe: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "cold": {
                "queries": self.cold_queries,
                "sat_calls": self.cold_sat_calls,
                "time_seconds": self.cold_time_seconds,
            },
            "warm": {
                "queries": self.warm_queries,
                "sat_calls": self.warm_sat_calls,
                "time_seconds": self.warm_time_seconds,
            },
            "identical": self.identical,
            "safe": self.safe,
        }


def _project_verdicts(result) -> list:
    return [_comparable_verdict(r) for r in result.results]


def store_rows(names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               modules_dir: Optional[pathlib.Path] = None,
               store_dir: Optional[pathlib.Path] = None) -> List[StoreRow]:
    """Run every port cold then store-warm against one persistent store.

    Each benchmark's cold run populates a store (a throwaway temporary
    directory unless ``store_dir`` pins one), then a completely fresh
    session — new solver, new caches, nothing shared but the store —
    re-checks the identical sources.  The module splits go through the
    project build the same way.
    """
    import shutil
    import tempfile
    from repro.project.build import check_project

    root = pathlib.Path(store_dir) if store_dir else \
        pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    rows: List[StoreRow] = []
    try:
        config = CheckConfig(store_path=str(root))
        for name in (names or BENCHMARKS):
            source = source_of(name, programs_dir)
            filename = f"{name}.rsc"
            cold = Session(config).check_source(source, filename=filename)
            warm = Session(config).check_source(source, filename=filename)
            rows.append(StoreRow(
                name=name, kind="file",
                cold_queries=cold.stats.queries if cold.stats else 0,
                cold_sat_calls=cold.stats.sat_calls if cold.stats else 0,
                cold_time_seconds=cold.time_seconds,
                warm_queries=warm.stats.queries if warm.stats else 0,
                warm_sat_calls=warm.stats.sat_calls if warm.stats else 0,
                warm_time_seconds=warm.time_seconds,
                identical=_comparable_verdict(cold)
                == _comparable_verdict(warm),
                safe=cold.ok and warm.ok))
        module_names = [n for n in (names or MODULE_BENCHMARKS)
                        if n in MODULE_BENCHMARKS]
        for name in module_names:
            project_root = (modules_dir or default_modules_dir()) / name
            if not project_root.is_dir():
                raise FileNotFoundError(f"no module benchmark at "
                                        f"{project_root}")
            cold = check_project(project_root, config=config)
            warm = check_project(project_root, config=config)
            rows.append(StoreRow(
                name=f"{name}-modules", kind="project",
                cold_queries=cold.stats.queries,
                cold_sat_calls=cold.stats.sat_calls,
                cold_time_seconds=cold.time_seconds,
                warm_queries=warm.stats.queries,
                warm_sat_calls=warm.stats.sat_calls,
                warm_time_seconds=warm.time_seconds,
                identical=_project_verdicts(cold) == _project_verdicts(warm),
                safe=cold.ok and warm.ok))
    finally:
        if store_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    return rows


#: Schema identifier stamped into persistent-store reports.
STORE_REPORT_SCHEMA = "repro-bench-store/1"


def store_report(rows: List[StoreRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_store.json``."""
    return {
        "schema": STORE_REPORT_SCHEMA,
        "benchmarks": {row.name: row.to_dict() for row in rows},
        "totals": {
            "cold_queries": sum(r.cold_queries for r in rows),
            "cold_sat_calls": sum(r.cold_sat_calls for r in rows),
            "warm_queries": sum(r.warm_queries for r in rows),
            "warm_sat_calls": sum(r.warm_sat_calls for r in rows),
            "cold_time_seconds": sum(r.cold_time_seconds for r in rows),
            "warm_time_seconds": sum(r.warm_time_seconds for r in rows),
        },
    }


def format_store(rows: List[StoreRow]) -> str:
    """The table printed by ``repro bench store``."""
    lines = [
        "Persistent store: cold process vs store-warm fresh process",
        "Benchmark            Kind     Cold-q  Cold-sat  Warm-q  Warm-sat  "
        "Same  Cold(s)  Warm(s)",
        "-" * 88,
    ]
    tot_cq = tot_cs = tot_wq = tot_ws = 0
    tot_ct = tot_wt = 0.0
    for row in rows:
        lines.append(
            f"{row.name:20s} {row.kind:8s} {row.cold_queries:6d} "
            f"{row.cold_sat_calls:9d} {row.warm_queries:7d} "
            f"{row.warm_sat_calls:9d} "
            f"{'yes' if row.identical else 'NO':>5s} "
            f"{row.cold_time_seconds:8.2f} {row.warm_time_seconds:8.2f}")
        tot_cq += row.cold_queries
        tot_cs += row.cold_sat_calls
        tot_wq += row.warm_queries
        tot_ws += row.warm_sat_calls
        tot_ct += row.cold_time_seconds
        tot_wt += row.warm_time_seconds
    lines.append("-" * 88)
    lines.append(f"{'TOTAL':20s} {'':8s} {tot_cq:6d} {tot_cs:9d} "
                 f"{tot_wq:7d} {tot_ws:9d} {'':5s} {tot_ct:8.2f} "
                 f"{tot_wt:8.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check-service load generator (`repro bench serve`)
# ---------------------------------------------------------------------------

#: Benchmark ports the serve load-generator replays; client ``i`` edits
#: ``SERVE_BENCHMARKS[i % len]`` under its own tenant.
SERVE_BENCHMARKS = ["splay", "d3-arrays", "richards", "transducers"]


@dataclass
class ServeClientResult:
    """What one concurrent editing client observed."""

    tenant: str
    benchmark: str
    requests: int = 0
    checks_ok: int = 0
    cancelled: int = 0
    backpressure: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    identical: bool = False
    safe: bool = False
    error: Optional[str] = None

    def to_dict(self) -> dict:
        from repro.obs.metrics import percentile
        return {
            "tenant": self.tenant,
            "benchmark": self.benchmark,
            "requests": self.requests,
            "checks_ok": self.checks_ok,
            "cancelled": self.cancelled,
            "backpressure": self.backpressure,
            "p50_ms": percentile(self.latencies_ms, 50.0),
            "p99_ms": percentile(self.latencies_ms, 99.0),
            "identical": self.identical,
            "safe": self.safe,
            "error": self.error,
        }


@dataclass
class ServeLoadResult:
    """The aggregate of one ``repro bench serve`` run."""

    clients: int
    edit_rate: float
    wall_seconds: float
    rows: List[ServeClientResult] = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)

    @property
    def latencies_ms(self) -> List[float]:
        return [ms for row in self.rows for ms in row.latencies_ms]

    @property
    def checks_ok(self) -> int:
        return sum(row.checks_ok for row in self.rows)

    @property
    def cancelled_queued(self) -> int:
        return int(self.server_stats.get("totals", {})
                   .get("cancelled_queued", 0))

    @property
    def cancelled_inflight(self) -> int:
        return int(self.server_stats.get("totals", {})
                   .get("cancelled_inflight", 0))

    @property
    def cancelled(self) -> int:
        return self.cancelled_queued + self.cancelled_inflight

    @property
    def throughput_cps(self) -> float:
        return self.checks_ok / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def identical(self) -> bool:
        return all(row.identical for row in self.rows)

    @property
    def safe(self) -> bool:
        return all(row.safe for row in self.rows)

    @property
    def ok(self) -> bool:
        """Load run acceptance: every client's diagnostics byte-identical
        to its sequential replay, every verdict safe, and at least one
        check observably cancelled by a superseding edit."""
        return self.identical and self.safe and self.cancelled >= 1


def _replay_sequentially(uri: str, transcript: List[tuple],
                         config: Optional[CheckConfig] = None) -> bool:
    """Re-run one client's successful edit texts through a fresh sequential
    workspace; True iff every diagnostics list matches byte-for-byte."""
    workspace = Workspace(config or CheckConfig())
    for index, (text, diagnostics) in enumerate(transcript):
        if index == 0:
            result = workspace.open(uri, text)
        else:
            result = workspace.update(uri, text)
        if [d.to_dict() for d in result.diagnostics] != diagnostics:
            return False
    return True


def _run_serve_client(host: str, port: int, name: str, source: str,
                      edit_rate: float, row: ServeClientResult,
                      config: Optional[CheckConfig] = None) -> None:
    """One editing client: cold check, paced scripted edits, then a
    pipelined superseding pair, then a sequential-replay comparison."""
    import time as _time

    from repro.client import Client
    from repro.wire import ProtocolError

    uri = f"{name}.rsc"
    period = 1.0 / edit_rate
    transcript: List[tuple] = []  # (text, diagnostics) of served checks
    safe = True
    try:
        with Client.connect(host, port, tenant=row.tenant,
                            timeout=600) as client:
            def timed(method: str, text: str) -> None:
                nonlocal safe
                row.requests += 1
                start = _time.perf_counter()
                payload = getattr(client, method)(uri, text)
                row.latencies_ms.append(
                    (_time.perf_counter() - start) * 1000.0)
                row.checks_ok += 1
                safe = safe and payload.ok
                transcript.append((text, payload.diagnostics))

            timed("check", source)
            for _label, text in scripted_edits(name, source):
                _time.sleep(period)
                timed("update", text)

            # The superseding pair: two pipelined updates of the same URI.
            # The second obsoletes the first — queued (removed before it
            # starts) or in-flight (cancellation token fired mid-check).
            probe = edit_function_body(source, EDIT_TARGETS[name], marker=1)
            first = client.submit("update", uri=uri, text=probe)
            second = client.submit("update", uri=uri, text=source)
            row.requests += 2
            for request_id, text in ((first, probe), (second, source)):
                response = client.wait(request_id)
                if response.ok:
                    row.checks_ok += 1
                    payload = response.result or {}
                    safe = safe and bool(payload.get("ok"))
                    transcript.append((text, payload.get("diagnostics", [])))
                elif response.error_code == "cancelled":
                    row.cancelled += 1
                elif response.error_code == "backpressure":
                    row.backpressure += 1
                else:
                    raise ProtocolError(response.error_code or "?",
                                        response.error_message or "?")
        row.identical = _replay_sequentially(uri, transcript, config)
        row.safe = safe
    except Exception as exc:  # noqa: BLE001 — one client's failure must
        # surface in the report, not kill the other load threads.
        row.error = f"{type(exc).__name__}: {exc}"
        row.identical = False
        row.safe = False


def serve_load(clients: int = 4, edit_rate: float = 2.0,
               programs_dir: Optional[pathlib.Path] = None,
               config: Optional[CheckConfig] = None) -> ServeLoadResult:
    """Load-test the socket server with concurrent editing clients.

    Starts an in-process :class:`repro.service.server.AsyncCheckServer`, points
    ``clients`` threads at it (each under its own tenant, replaying its
    benchmark's scripted edit sequence at ``edit_rate`` edits/second, plus
    one pipelined superseding pair), then collects the server's ``stats``
    and compares every client's served diagnostics against a sequential
    single-client replay.
    """
    import threading
    import time as _time

    from repro.client import Client
    from repro.service.server import AsyncCheckServer
    from repro.wire import ServerThread

    config = config or CheckConfig()
    rows = [ServeClientResult(
                tenant=f"client-{index}",
                benchmark=SERVE_BENCHMARKS[index % len(SERVE_BENCHMARKS)])
            for index in range(clients)]
    sources = {row.benchmark: source_of(row.benchmark, programs_dir)
               for row in rows}
    start = _time.perf_counter()
    with ServerThread(AsyncCheckServer(config)) as server:
        threads = [
            threading.Thread(
                target=_run_serve_client,
                args=(server.host, server.port, row.benchmark,
                      sources[row.benchmark], edit_rate, row, config),
                name=row.tenant)
            for row in rows]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = _time.perf_counter() - start
        with Client.connect(server.host, server.port) as control:
            stats = control.stats()
            control.shutdown()
    return ServeLoadResult(clients=clients, edit_rate=edit_rate,
                           wall_seconds=wall, rows=rows,
                           server_stats=stats.to_json())


#: Schema identifier stamped into serve-load reports.
SERVE_REPORT_SCHEMA = "repro-bench-serve/1"


def serve_report(load: ServeLoadResult) -> dict:
    """The machine-readable report dumped as ``BENCH_serve.json``."""
    from repro.obs.metrics import percentile
    return {
        "schema": SERVE_REPORT_SCHEMA,
        "clients": load.clients,
        "edit_rate": load.edit_rate,
        "wall_seconds": load.wall_seconds,
        "checks_ok": load.checks_ok,
        "cancelled_queued": load.cancelled_queued,
        "cancelled_inflight": load.cancelled_inflight,
        "p50_ms": percentile(load.latencies_ms, 50.0),
        "p99_ms": percentile(load.latencies_ms, 99.0),
        "throughput_cps": load.throughput_cps,
        "identical": load.identical,
        "safe": load.safe,
        "tenants": {row.tenant: row.to_dict() for row in load.rows},
        "server": load.server_stats.get("totals", {}),
    }


def format_serve(load: ServeLoadResult) -> str:
    """The table printed by ``repro bench serve``."""
    from repro.obs.metrics import percentile
    lines = [
        f"Check service: {load.clients} concurrent clients x "
        f"{load.edit_rate:g} edits/s (supersede pair per client)",
        "Tenant       Benchmark        Reqs  OK  Cancel  p50(ms)  p99(ms)  "
        "Same  Safe",
        "-" * 78,
    ]
    for row in load.rows:
        lines.append(
            f"{row.tenant:12s} {row.benchmark:15s} {row.requests:5d} "
            f"{row.checks_ok:3d} {row.cancelled:7d} "
            f"{percentile(row.latencies_ms, 50.0):8.1f} "
            f"{percentile(row.latencies_ms, 99.0):8.1f} "
            f"{'yes' if row.identical else 'NO':>5s} "
            f"{'yes' if row.safe else 'NO':>5s}"
            + (f"  [{row.error}]" if row.error else ""))
    lines.append("-" * 78)
    lines.append(
        f"{'TOTAL':12s} {'':15s} {sum(r.requests for r in load.rows):5d} "
        f"{load.checks_ok:3d} {load.cancelled:7d} "
        f"{percentile(load.latencies_ms, 50.0):8.1f} "
        f"{percentile(load.latencies_ms, 99.0):8.1f}")
    lines.append(
        f"cancelled: {load.cancelled_queued} queued + "
        f"{load.cancelled_inflight} in-flight; throughput "
        f"{load.throughput_cps:.2f} checks/s over {load.wall_seconds:.2f}s; "
        f"diagnostics identical to sequential replay: "
        f"{'yes' if load.identical else 'NO'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared cache fleet (`repro bench cache`)
# ---------------------------------------------------------------------------

#: Fast subset the fault-injection phase replays (the point is exercising
#: the degraded paths, not re-timing the whole suite).
FAULT_BENCHMARKS = ["tsc-checker", "d3-arrays"]


@dataclass
class CacheWorkerRow:
    """One fleet worker: a fresh ``repro check`` subprocess sharing the
    cache server.  ``role`` is ``"cold"`` (first worker, populates the
    server) or ``"warm-N"`` (must replay with zero queries and zero SAT
    searches)."""

    role: str
    queries: int = 0
    sat_calls: int = 0
    time_seconds: float = 0.0
    identical: bool = False
    safe: bool = False
    store: dict = field(default_factory=dict)
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "queries": self.queries,
            "sat_calls": self.sat_calls,
            "time_seconds": self.time_seconds,
            "identical": self.identical,
            "safe": self.safe,
            "store": self.store,
            "error": self.error,
        }


@dataclass
class CacheFleetResult:
    """What ``repro bench cache`` measured and asserted.

    The contract: N fresh worker processes sharing one cache server are
    byte-identical to an in-process sequential replay, the warm workers
    issue zero fixpoint queries and zero SAT searches, and the whole
    fleet's SAT total equals the one cold worker's — shared caching makes
    fleet cost independent of fleet size.  The fault phase re-runs two
    workers against a server that drops, delays and corrupts responses
    and requires the same verdicts with the degradation *counted*.
    """

    workers: int
    names: List[str]
    rows: List[CacheWorkerRow] = field(default_factory=list)
    server: dict = field(default_factory=dict)
    fault: Optional[dict] = None

    @property
    def cold_row(self) -> Optional[CacheWorkerRow]:
        return next((r for r in self.rows if r.role == "cold"), None)

    @property
    def identical(self) -> bool:
        return bool(self.rows) and all(r.identical and not r.error
                                       for r in self.rows)

    @property
    def safe(self) -> bool:
        return bool(self.rows) and all(r.safe for r in self.rows)

    @property
    def warm_zero(self) -> bool:
        warm = [r for r in self.rows if r.role != "cold"]
        return bool(warm) and all(r.queries == 0 and r.sat_calls == 0
                                  for r in warm)

    @property
    def fleet_sat_calls(self) -> int:
        return sum(r.sat_calls for r in self.rows)

    @property
    def sat_budget_ok(self) -> bool:
        """The fleet's entire SAT spend is exactly one cold worker's."""
        cold = self.cold_row
        return cold is not None and self.fleet_sat_calls == cold.sat_calls

    @property
    def fault_ok(self) -> bool:
        if self.fault is None:
            return True
        return bool(self.fault.get("identical")
                    and self.fault.get("safe")
                    and self.fault.get("degraded_ops", 0) > 0
                    and self.fault.get("injected_ops", 0) > 0)

    @property
    def ok(self) -> bool:
        return (self.identical and self.safe and self.warm_zero
                and self.sat_budget_ok and self.fault_ok)


def _sequential_verdicts(paths: List[str]) -> list:
    """The reference: one fresh in-process session, no store, JSON-shaped
    so it compares byte-for-byte with a worker subprocess's report."""
    import json as _json
    batch = Session(CheckConfig()).check_files(paths)
    return _json.loads(_json.dumps(
        [_comparable_verdict(r) for r in batch.results]))


def _worker_verdicts(report: dict) -> list:
    return [[f.get("diagnostics", []), f.get("kappas", {})]
            for f in report.get("files", [])]


def _run_cache_worker(role: str, paths: List[str], store_url: str,
                      reference: list) -> CacheWorkerRow:
    """One fresh ``repro check --format json`` subprocess against the
    shared server; nothing but the store URL connects it to this process."""
    import json as _json
    import subprocess
    import sys

    src_dir = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_STORE", None)
    # A fleet run under REPRO_TRACE=dir/ pins the parent's trace id on
    # every worker, so their per-pid dumps (and this process's own spans)
    # merge into one trace: `repro trace merge dir/trace-*.json`.
    from repro.obs.trace import current_trace_id
    trace_id = current_trace_id()
    if env.get("REPRO_TRACE") and trace_id and "REPRO_TRACE_ID" not in env:
        env["REPRO_TRACE_ID"] = trace_id
    row = CacheWorkerRow(role=role)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--format", "json",
         "--store", store_url, *paths],
        capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode not in (0, 1):
        row.error = (f"worker exited {proc.returncode}: "
                     f"{proc.stderr.strip()[:200]}")
        return row
    try:
        report = _json.loads(proc.stdout)
    except ValueError as exc:
        row.error = f"unparseable worker output: {exc}"
        return row
    stats = report.get("solver_stats") or {}
    row.queries = int(stats.get("queries", 0))
    row.sat_calls = int(stats.get("sat_calls", 0))
    row.time_seconds = float(report.get("time_seconds", 0.0))
    row.safe = bool(report.get("ok"))
    row.store = report.get("store") or {}
    row.identical = _worker_verdicts(report) == reference
    return row


def _bench_paths(names: List[str],
                 programs_dir: Optional[pathlib.Path]) -> List[str]:
    base = programs_dir or default_programs_dir()
    paths = [str(base / f"{name}.rsc") for name in names]
    for path in paths:
        if not pathlib.Path(path).is_file():
            raise FileNotFoundError(f"no benchmark program at {path}")
    return paths


def cache_fleet(workers: int = 3, names: Optional[List[str]] = None,
                programs_dir: Optional[pathlib.Path] = None,
                fault_names: Optional[List[str]] = None) -> CacheFleetResult:
    """Run the shared-cache fleet scenario end to end.

    Phase 1: start a cache server over a throwaway store, run one cold
    worker subprocess (populates the server), then ``workers - 1`` warm
    worker subprocesses concurrently — every one a fresh process whose only
    connection to the others is ``remote://`` pointing at the server.

    Phase 2 (fault injection): a fresh server configured to drop every 3rd,
    delay every 4th and corrupt every 5th data response serves two workers
    over a fast benchmark subset; their verdicts must still match the
    sequential reference, with the degradation visible in the counters.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.store.remote import RemoteStoreBackend
    from repro.store.server import FaultPlan, StoreServer
    from repro.wire import ServerThread

    names = list(names or BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)}")
    paths = _bench_paths(names, programs_dir)
    reference = _sequential_verdicts(paths)
    result = CacheFleetResult(workers=workers, names=names)

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with ServerThread(StoreServer(root=root)) as server:
            url = f"remote://127.0.0.1:{server.port}"
            result.rows.append(
                _run_cache_worker("cold", paths, url, reference))
            warm_count = max(0, workers - 1)
            with ThreadPoolExecutor(max_workers=max(1, warm_count)) as pool:
                futures = [
                    pool.submit(_run_cache_worker, f"warm-{i + 1}", paths,
                                url, reference)
                    for i in range(warm_count)]
                result.rows.extend(f.result() for f in futures)
            probe = RemoteStoreBackend(f"127.0.0.1:{server.port}")
            result.server = probe.ping()
            probe.shutdown()

        fault_names = [n for n in (fault_names or FAULT_BENCHMARKS)
                       if n in names] or names[:1]
        fault_paths = _bench_paths(fault_names, programs_dir)
        fault_reference = _sequential_verdicts(fault_paths)
        plan = FaultPlan(drop_every=3, delay_every=4, corrupt_every=5,
                         delay_seconds=0.02)
        fault_root = tempfile.mkdtemp(prefix="repro-bench-cache-fault-")
        try:
            with ServerThread(StoreServer(root=fault_root,
                                          faults=plan)) as server:
                url = (f"remote://127.0.0.1:{server.port}"
                       "?retries=1&timeout=10")
                fault_rows = [
                    _run_cache_worker("fault-cold", fault_paths, url,
                                      fault_reference),
                    _run_cache_worker("fault-warm", fault_paths, url,
                                      fault_reference),
                ]
                probe = RemoteStoreBackend(f"127.0.0.1:{server.port}")
                fault_server = probe.ping()
                probe.shutdown()
        finally:
            shutil.rmtree(fault_root, ignore_errors=True)
        degraded = 0
        for row in fault_rows:
            backend = row.store.get("backend", {})
            degraded += int(backend.get("remote_errors", 0))
            degraded += int(backend.get("degraded_gets", 0))
            degraded += int(backend.get("degraded_puts", 0))
        injected = fault_server.get("faults") or {}
        result.fault = {
            "benchmarks": fault_names,
            "plan": {"drop_every": plan.drop_every,
                     "delay_every": plan.delay_every,
                     "corrupt_every": plan.corrupt_every},
            "workers": [row.to_dict() for row in fault_rows],
            "identical": all(r.identical and not r.error
                             for r in fault_rows),
            "safe": all(r.safe for r in fault_rows),
            "degraded_ops": degraded,
            "injected_ops": (int(injected.get("dropped", 0))
                             + int(injected.get("delayed", 0))
                             + int(injected.get("corrupted", 0))),
            "server_faults": injected,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


#: Schema identifier stamped into shared-cache fleet reports.
CACHE_REPORT_SCHEMA = "repro-bench-cache/1"


def cache_report(fleet: CacheFleetResult) -> dict:
    """The machine-readable report dumped as ``BENCH_cache.json``."""
    cold = fleet.cold_row
    return {
        "schema": CACHE_REPORT_SCHEMA,
        "workers": fleet.workers,
        "benchmarks": fleet.names,
        "rows": [row.to_dict() for row in fleet.rows],
        "totals": {
            "cold_queries": cold.queries if cold else 0,
            "cold_sat_calls": cold.sat_calls if cold else 0,
            "fleet_sat_calls": fleet.fleet_sat_calls,
            "warm_queries": sum(r.queries for r in fleet.rows
                                if r.role != "cold"),
            "warm_sat_calls": sum(r.sat_calls for r in fleet.rows
                                  if r.role != "cold"),
        },
        "identical": fleet.identical,
        "warm_zero": fleet.warm_zero,
        "sat_budget_ok": fleet.sat_budget_ok,
        "safe": fleet.safe,
        "server": {"requests_served":
                   fleet.server.get("requests_served", 0)},
        "fault": fleet.fault,
        "ok": fleet.ok,
    }


def format_cache(fleet: CacheFleetResult) -> str:
    """The table printed by ``repro bench cache``."""
    lines = [
        f"Shared cache fleet: {fleet.workers} fresh worker processes over "
        f"one cache server ({len(fleet.names)} benchmarks)",
        "Worker      Queries  SAT-calls  Time(s)  Same  Safe",
        "-" * 56,
    ]
    for row in fleet.rows:
        lines.append(
            f"{row.role:11s} {row.queries:7d} {row.sat_calls:10d} "
            f"{row.time_seconds:8.2f} "
            f"{'yes' if row.identical else 'NO':>5s} "
            f"{'yes' if row.safe else 'NO':>5s}"
            + (f"  [{row.error}]" if row.error else ""))
    lines.append("-" * 56)
    cold = fleet.cold_row
    lines.append(
        f"fleet SAT total {fleet.fleet_sat_calls} vs cold worker "
        f"{cold.sat_calls if cold else 0} "
        f"({'within' if fleet.sat_budget_ok else 'OVER'} budget); "
        f"warm workers zero-query: {'yes' if fleet.warm_zero else 'NO'}")
    if fleet.fault is not None:
        fault = fleet.fault
        lines.append(
            f"fault injection over {', '.join(fault['benchmarks'])}: "
            f"verdicts identical: {'yes' if fault['identical'] else 'NO'}; "
            f"degraded ops counted: {fault['degraded_ops']} "
            f"(server injected: {fault['server_faults']})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tracing overhead (`repro bench obs`)
# ---------------------------------------------------------------------------

#: Fast subset the overhead measurement replays (the point is the cost of
#: the tracing seams, not re-timing the whole suite).
OBS_BENCHMARKS = ["tsc-checker", "navier-stokes"]

#: No-op span calls timed by the disabled-path microbenchmark.
OBS_NOOP_CALLS = 200_000

#: Schema identifier stamped into tracing-overhead reports.
OBS_REPORT_SCHEMA = "repro-bench-obs/1"


@dataclass
class ObsRow:
    """One benchmark checked twice: tracer disabled, then enabled."""

    name: str
    off_seconds: float = 0.0
    on_seconds: float = 0.0
    events: int = 0
    safe: bool = False
    identical: bool = False

    @property
    def on_overhead_pct(self) -> float:
        """Measured enabled-tracer overhead (noisy; reported, not gated)."""
        if self.off_seconds <= 0.0:
            return 0.0
        return (self.on_seconds - self.off_seconds) / self.off_seconds * 100.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "off_seconds": self.off_seconds,
            "on_seconds": self.on_seconds,
            "events": self.events,
            "on_overhead_pct": self.on_overhead_pct,
            "safe": self.safe,
            "identical": self.identical,
        }


def noop_span_cost(calls: int = OBS_NOOP_CALLS) -> dict:
    """Time the disabled fast path: one ``span()`` call, tracer off.

    This is the only cost an untraced check pays per instrumentation seam,
    so ``per_call_ns`` × the span count of a traced run bounds the
    disabled-tracer overhead — the number CI gates below 2%."""
    import time as _time

    from repro.obs.trace import span, tracer
    t = tracer()
    was_enabled = t.enabled
    t.enabled = False
    start = _time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", "bench"):
            pass
    elapsed = _time.perf_counter() - start
    t.enabled = was_enabled
    return {"calls": calls, "seconds": elapsed,
            "per_call_ns": elapsed / calls * 1e9}


def obs_rows(names: Optional[List[str]] = None,
             programs_dir: Optional[pathlib.Path] = None) -> List[ObsRow]:
    """Check each benchmark twice — tracer off, then on — in fresh
    sessions, asserting byte-identical verdicts."""
    import time as _time

    from repro.obs.trace import tracer
    rows: List[ObsRow] = []
    t = tracer()
    for name in (names or OBS_BENCHMARKS):
        source = source_of(name, programs_dir)
        filename = f"{name}.rsc"
        t.reset()
        start = _time.perf_counter()
        off_result = Session(CheckConfig()).check_source(source,
                                                         filename=filename)
        off_seconds = _time.perf_counter() - start
        t.enable()
        start = _time.perf_counter()
        on_result = Session(CheckConfig()).check_source(source,
                                                        filename=filename)
        on_seconds = _time.perf_counter() - start
        events = len(t.drain()["events"])
        t.reset()
        rows.append(ObsRow(
            name=name, off_seconds=off_seconds, on_seconds=on_seconds,
            events=events, safe=off_result.ok and on_result.ok,
            identical=(_comparable_verdict(off_result)
                       == _comparable_verdict(on_result))))
    return rows


def obs_report(rows: List[ObsRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_obs.json``.

    ``totals.off_overhead_pct`` is the gated number: the no-op span cost
    times the span count of a traced run, as a fraction of the untraced
    wall-clock — what tracing costs every user who never turns it on."""
    noop = noop_span_cost()
    off_total = sum(row.off_seconds for row in rows)
    on_total = sum(row.on_seconds for row in rows)
    events_total = sum(row.events for row in rows)
    off_overhead_pct = 0.0
    if off_total > 0.0:
        off_overhead_pct = (events_total * noop["per_call_ns"] / 1e9
                            / off_total * 100.0)
    return {
        "schema": OBS_REPORT_SCHEMA,
        "noop": noop,
        "rows": [row.to_dict() for row in rows],
        "totals": {
            "off_seconds": off_total,
            "on_seconds": on_total,
            "events": events_total,
            "off_overhead_pct": off_overhead_pct,
            "on_overhead_pct": ((on_total - off_total) / off_total * 100.0
                                if off_total > 0.0 else 0.0),
        },
        "safe": all(row.safe for row in rows),
        "identical": all(row.identical for row in rows),
    }


def format_obs(rows: List[ObsRow]) -> str:
    """The table printed by ``repro bench obs``."""
    report = obs_report(rows)
    noop = report["noop"]
    lines = [
        "Tracing overhead: each benchmark checked with the tracer "
        "disabled, then enabled",
        "Benchmark        Off(s)    On(s)   Spans  On-ovh%  Same  Safe",
        "-" * 62,
    ]
    for row in rows:
        lines.append(
            f"{row.name:15s} {row.off_seconds:7.2f} {row.on_seconds:8.2f} "
            f"{row.events:7d} {row.on_overhead_pct:8.1f} "
            f"{'yes' if row.identical else 'NO':>5s} "
            f"{'yes' if row.safe else 'NO':>5s}")
    lines.append("-" * 62)
    lines.append(
        f"no-op span: {noop['per_call_ns']:.0f} ns/call over "
        f"{noop['calls']} calls; disabled-tracer overhead "
        f"{report['totals']['off_overhead_pct']:.3f}% of untraced "
        f"wall-clock (CI gates < 2%)")
    return "\n".join(lines)


def format_figure7(names: Optional[List[str]] = None,
                   programs_dir: Optional[pathlib.Path] = None) -> str:
    lines = ["Benchmark        LOC  ImpDiff  AllDiff",
             "-" * 40]
    for name in (names or BENCHMARKS):
        loc = count_loc(source_of(name, programs_dir))
        imp, all_diff = CODE_CHANGES[name]
        lines.append(f"{name:15s} {loc:4d} {imp:8d} {all_diff:8d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# raw-speed benchmarks (`repro bench speed`)
# ---------------------------------------------------------------------------


@dataclass
class SpeedRow:
    """Memoisation-off vs memoisation-on numbers for one benchmark.

    The *baseline* phase checks in the previous engine's configuration:
    :func:`repro.logic.terms.set_memoisation` disabled — every traversal
    (``simplify``, ``free_vars``, ``substitute``, CNF conversion, theory
    verdicts) recomputes from scratch — and
    :func:`repro.smt.lia.set_exact_ints` disabled, running Fourier–Motzkin
    elimination on the historical ``fractions.Fraction`` arithmetic.  The
    *speed* phase re-checks the same source with memoisation on (cold memo
    tables) and integer LIA arithmetic; the reference configuration doubles
    as a differential oracle, since both phases must produce byte-identical
    diagnostics and kappa solutions.

    ``baseline_allocations`` counts term-constructor invocations during the
    baseline phase — exactly the number of fresh objects the pre-hash-cons
    engine allocated, since back then every construction allocated.
    ``speed_allocations`` counts the term objects actually created (intern
    misses) during the speed phase; the acceptance gate requires it to be
    strictly smaller.

    ``kind`` is ``"file"`` (single-file port, fresh :class:`Session` per
    phase) or ``"project"`` (module split through a fresh
    :class:`repro.project.ProjectWorkspace` per phase).
    """

    name: str
    kind: str
    baseline_time_seconds: float
    speed_time_seconds: float
    baseline_allocations: int
    speed_allocations: int
    intern_hit_rate: float
    queries: int
    identical: bool
    safe: bool

    @property
    def speedup(self) -> float:
        if self.speed_time_seconds <= 0:
            return 0.0
        return self.baseline_time_seconds / self.speed_time_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "baseline": {
                "time_seconds": self.baseline_time_seconds,
                "allocations": self.baseline_allocations,
            },
            "speed": {
                "time_seconds": self.speed_time_seconds,
                "allocations": self.speed_allocations,
                "intern_hit_rate": self.intern_hit_rate,
            },
            "speedup": self.speedup,
            "queries": self.queries,
            "identical": self.identical,
            "safe": self.safe,
        }


def _project_verdict(project) -> list:
    """Byte-level comparable verdict of a whole project build."""
    return sorted((result.filename, _comparable_verdict(result))
                  for result in project.results)


def speed_rows(names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               modules_dir: Optional[pathlib.Path] = None) -> List[SpeedRow]:
    """Check every port twice — reference configuration, then fast — and
    compare.

    Phase order matters for the allocation counters: the baseline phase
    counts constructor *invocations* (what the engine allocated before
    hash-consing existed — memoisation off makes every traversal recompute
    exactly as the old code did), while the speed phase counts intern
    *misses* (objects actually created).  Verdicts must be byte-identical
    between the phases.  Both module-split projects run the same two phases
    through fresh project workspaces.

    The fast configuration is always restored on exit, even if a check
    raises.
    """
    from repro.logic.terms import (
        intern_stats,
        reset_intern_stats,
        set_memoisation,
    )
    from repro.project.workspace import ProjectWorkspace
    from repro.smt.lia import set_exact_ints

    rows: List[SpeedRow] = []
    try:
        for name in (names or BENCHMARKS):
            source = source_of(name, programs_dir)
            filename = f"{name}.rsc"
            set_memoisation(False)
            set_exact_ints(False)
            reset_intern_stats()
            baseline = Session(CheckConfig()).check_source(
                source, filename=filename)
            base_stats = intern_stats()
            set_memoisation(True)   # also clears the memo tables
            set_exact_ints(True)
            reset_intern_stats()
            speed = Session(CheckConfig()).check_source(
                source, filename=filename)
            fast_stats = intern_stats()
            rows.append(SpeedRow(
                name=name, kind="file",
                baseline_time_seconds=baseline.time_seconds,
                speed_time_seconds=speed.time_seconds,
                baseline_allocations=base_stats["constructions"],
                speed_allocations=fast_stats["misses"],
                intern_hit_rate=fast_stats["hit_rate"],
                queries=speed.stats.queries if speed.stats else 0,
                identical=(_comparable_verdict(baseline)
                           == _comparable_verdict(speed)),
                safe=baseline.ok and speed.ok))

        directory = modules_dir or default_modules_dir()
        wanted = [n for n in MODULE_BENCHMARKS
                  if names is None or n in names]
        for name in wanted:
            root = directory / name
            if not root.is_dir():
                raise FileNotFoundError(f"no module benchmark at {root}")
            set_memoisation(False)
            set_exact_ints(False)
            reset_intern_stats()
            baseline_build = ProjectWorkspace(root=root).check()
            base_stats = intern_stats()
            set_memoisation(True)
            set_exact_ints(True)
            reset_intern_stats()
            speed_build = ProjectWorkspace(root=root).check()
            fast_stats = intern_stats()
            rows.append(SpeedRow(
                name=f"{name} (project)", kind="project",
                baseline_time_seconds=baseline_build.time_seconds,
                speed_time_seconds=speed_build.time_seconds,
                baseline_allocations=base_stats["constructions"],
                speed_allocations=fast_stats["misses"],
                intern_hit_rate=fast_stats["hit_rate"],
                queries=speed_build.stats.queries,
                identical=(_project_verdict(baseline_build)
                           == _project_verdict(speed_build)),
                safe=baseline_build.ok and speed_build.ok))
    finally:
        set_memoisation(True)
        set_exact_ints(True)
    return rows


#: Schema identifier stamped into raw-speed reports.
SPEED_REPORT_SCHEMA = "repro-bench-speed/1"


def speed_report(rows: List[SpeedRow]) -> dict:
    """The machine-readable report dumped as ``BENCH_speed.json``."""
    baseline_time = sum(r.baseline_time_seconds for r in rows)
    speed_time = sum(r.speed_time_seconds for r in rows)
    return {
        "schema": SPEED_REPORT_SCHEMA,
        "benchmarks": {row.name: row.to_dict() for row in rows},
        "totals": {
            "baseline_time_seconds": baseline_time,
            "speed_time_seconds": speed_time,
            "speedup": baseline_time / speed_time if speed_time else 0.0,
            "baseline_allocations": sum(r.baseline_allocations for r in rows),
            "speed_allocations": sum(r.speed_allocations for r in rows),
            "fewer_allocations": all(
                r.speed_allocations < r.baseline_allocations for r in rows),
            "identical": all(r.identical for r in rows),
            "safe": all(r.safe for r in rows),
        },
    }


def format_speed(rows: List[SpeedRow]) -> str:
    """The table printed by ``repro bench speed``."""
    lines = [
        "Raw speed: reference engine (no memos, Fraction LIA) vs fast "
        "(memoised, integer LIA)",
        "Benchmark            Base(s)  Fast(s)  Speedup     Alloc(base)  "
        "Alloc(fast)  Hit%  Same",
        "-" * 89,
    ]
    for row in rows:
        lines.append(
            f"{row.name:20s} {row.baseline_time_seconds:7.2f} "
            f"{row.speed_time_seconds:8.2f} {row.speedup:7.2f}x "
            f"{row.baseline_allocations:14d} {row.speed_allocations:12d} "
            f"{100 * row.intern_hit_rate:5.1f} "
            f"{'yes' if row.identical else 'NO':>5s}")
    lines.append("-" * 89)
    report = speed_report(rows)
    totals = report["totals"]
    lines.append(
        f"{'TOTAL':20s} {totals['baseline_time_seconds']:7.2f} "
        f"{totals['speed_time_seconds']:8.2f} {totals['speedup']:7.2f}x "
        f"{totals['baseline_allocations']:14d} "
        f"{totals['speed_allocations']:12d}")
    return "\n".join(lines)
