"""Benchmark support: the paper's evaluation tables and CI's counter gate.

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

Every bench family in :data:`FAMILIES` is a driver ``family(names) ->
List[Row]`` under one schema, :class:`Row`.  :func:`run` collects the rows
into one report (``repro bench`` writes it as ``bench-report.json``),
:func:`render` prints it as one table per family and :func:`gate` checks it:
every row must be ``ok``, the rows of one input must agree on their verdict
digest, and with a baseline (``benchmarks/baseline.json``, applied by
``benchmarks/check_regression.py``) every rule on every metric must hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.config import CheckConfig
from repro.core.session import Session
from repro.core.workspace import Workspace
from repro.smt.solver import SolverStats

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

#: Benchmark ports that exist as multi-module splits under
#: ``benchmarks/modules/<name>/``.
MODULE_BENCHMARKS = ["d3-arrays", "splay"]

#: Ports the serve load generator replays; client ``i`` edits
#: ``SERVE_BENCHMARKS[i % len]`` under its own tenant.
SERVE_BENCHMARKS = ["splay", "d3-arrays", "richards", "transducers"]

#: Concurrent editing clients of ``bench serve``, and the edits per second
#: each one replays.
SERVE_CLIENTS = 4
SERVE_EDIT_RATE = 2.0

#: Fast subset the tracing-overhead measurement replays (the point is the
#: cost of the tracing seams, not re-timing the whole suite).
OBS_BENCHMARKS = ["tsc-checker", "navier-stokes"]

#: No-op span calls timed by the disabled-path microbenchmark.
OBS_NOOP_CALLS = 200_000

_REFINEMENT_MARKERS = re.compile(
    r"\{\s*v\s*:|idx<|grid<|okW|okH|len\(|mask\(|impl\(|flagsT|rgb\b|nat\b|pos\b")
_MUTABILITY_MARKERS = re.compile(
    r"\bimmutable\b|\bIArray\b|\bROArray\b|\bUArray\b|Array<\s*(IM|MU|RO|UQ)")


# ---------------------------------------------------------------------------
# the row schema
# ---------------------------------------------------------------------------


@dataclass
class Row:
    """One measured step of one bench family.

    ``counters`` holds deterministic work counts (and derived values such as
    ``saved_queries``, the comparison a family asserts), ``seconds`` the
    step's wall-clock, ``digest`` a hash of the verdict the step produced
    (diagnostics and kappa solutions; empty for rows without one) and
    ``ok`` whether the step verified.  Rows of one family named
    ``INPUT`` and ``INPUT/VARIANT`` check the same input, so they must
    carry the same digest.
    """

    bench: str
    name: str
    counters: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    digest: str = ""
    ok: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def verdict(result) -> list:
    """The byte-comparable verdict of a check, a batch or a project build:
    every diagnostic and the solved kappa refinements, rendered to
    JSON-shaped values (a batch or project becomes a list of
    ``[filename, verdict]`` pairs, see :func:`files_verdict`)."""
    results = getattr(result, "results", None)
    if results is not None:
        return files_verdict([r.filename, verdict(r)] for r in results)
    return [[d.to_dict() for d in result.diagnostics],
            {name: [str(q) for q in quals]
             for name, quals in result.kappa_solution.items()}]


def files_verdict(files: Iterable[list]) -> list:
    """``[filename, [diagnostics, kappas]]`` pairs sorted by filename, with
    every absolute filename (of a pair or a diagnostic's span) relative to
    the directory that holds all the files: two copies of one project at
    different paths have one verdict."""
    files = list(files)
    dirs = [os.path.dirname(name) for name, _verdict in files]
    root = os.path.commonpath(dirs) \
        if dirs and all(map(os.path.isabs, dirs)) else ""

    def relative(filename: str) -> str:
        if root and os.path.isabs(filename):
            return os.path.relpath(filename, root)
        return filename

    for _name, (diagnostics, _kappas) in files:
        for d in diagnostics:
            d["span"]["file"] = relative(d["span"]["file"])
    return sorted([relative(name), checked] for name, checked in files)


def digest(value) -> str:
    """Short content hash of a JSON-shaped verdict."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _row(bench: str, name: str, result, seconds: Optional[float] = None,
         **counters) -> Row:
    """The row of one check: its SMT work counters plus ``counters``."""
    stats = result.stats or SolverStats()
    return Row(bench, name,
               counters={"queries": stats.queries,
                         "sat_calls": stats.sat_calls,
                         "giveups": stats.giveups, **counters},
               seconds=result.time_seconds if seconds is None else seconds,
               digest=digest(verdict(result)), ok=result.ok)


# ---------------------------------------------------------------------------
# benchmark inputs
# ---------------------------------------------------------------------------


def benchmarks_dir() -> pathlib.Path:
    """Locate ``benchmarks/`` (current directory, then the source tree)."""
    candidates = (pathlib.Path.cwd() / "benchmarks",
                  pathlib.Path(__file__).resolve().parents[2] / "benchmarks")
    for candidate in candidates:
        if (candidate / "programs").is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the benchmarks directory; run from the repository "
        "root")


def source_of(name: str) -> str:
    return (benchmarks_dir() / "programs" / f"{name}.rsc").read_text()


def _inputs(names: Optional[Sequence[str]],
            default: Sequence[str] = BENCHMARKS,
            projects: bool = False) -> List[Tuple[str, pathlib.Path]]:
    """``(name, path)`` of every port to check (``names`` or ``default``)
    and, with ``projects``, of the module splits among them as
    ``NAME-modules`` directories."""
    root = benchmarks_dir()
    inputs = [(name, root / "programs" / f"{name}.rsc")
              for name in (names or default)]
    if projects:
        inputs += [(f"{name}-modules", root / "modules" / name)
                   for name in MODULE_BENCHMARKS
                   if names is None or name in names]
    for _name, path in inputs:
        if not path.exists():
            raise FileNotFoundError(f"no benchmark at {path}")
    return inputs


def _check(path: pathlib.Path, session: Session):
    """Check one port (a file) or module split (a directory)."""
    if path.is_dir():
        return session.check_project(path)
    return session.check_source(path.read_text(), filename=path.name)


Runner = Callable[[pathlib.Path], Tuple[object, dict]]


def _compare(bench: str, inputs: List[Tuple[str, pathlib.Path]],
             variants: List[Tuple[str, Runner]]) -> List[Row]:
    """Check every input under each variant in turn, one row per check.

    ``variants`` lists ``(suffix, run)`` in run order; ``run(path)``
    returns ``(result, counters)``.  The row of the ``""`` variant is named
    after the input, the others' ``INPUT<suffix>``, so they all land in one
    digest group; ``seconds`` is the wall-clock of ``run``.
    """
    rows: List[Row] = []
    for name, path in inputs:
        for suffix, run in variants:
            start = time.perf_counter()
            result, counters = run(path)
            rows.append(_row(bench, name + suffix, result,
                             time.perf_counter() - start, **counters))
    return rows


# ---------------------------------------------------------------------------
# Figures 6 and 7 (`repro bench figure6`, `repro bench figure7`)
# ---------------------------------------------------------------------------


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


def _figure6_runner(session: Session, annotate: bool) -> Runner:
    def run(path: pathlib.Path) -> Tuple[object, dict]:
        result = _check(path, session)
        solve = result.solve_stats
        stats = result.stats or SolverStats()
        counters = {"queries_issued": solve.queries_issued if solve else 0,
                    "queries_pruned": solve.queries_pruned if solve else 0,
                    "rounds": solve.rounds if solve else 0,
                    "model_refutations": stats.model_refutations}
        if annotate:
            source = path.read_text()
            trivial, mutability, refinements = count_annotations(source)
            counters = {"loc": count_loc(source), "trivial": trivial,
                        "mutability": mutability,
                        "refinements": refinements,
                        "errors": len(result.errors), **counters}
        return result, counters
    return run


def check_benchmark(name: str, session: Optional[Session] = None) -> Row:
    """The Figure 6 row of one port (a fresh session unless given one)."""
    run = _figure6_runner(session or Session(CheckConfig()), annotate=True)
    row, = _compare("figure6", _inputs([name]), [("", run)])
    return row


def figure6(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Figure 6: one session across all ports, amortising its solver
    exactly like a Figure 6 run."""
    run = _figure6_runner(Session(CheckConfig()), annotate=True)
    return _compare("figure6", _inputs(names), [("", run)])


def figure7(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Figure 7: LOC and the recorded ImpDiff/AllDiff porting effort."""
    return [Row("figure7", name,
                counters={"loc": count_loc(path.read_text()),
                          "imp_diff": CODE_CHANGES[name][0],
                          "all_diff": CODE_CHANGES[name][1]})
            for name, path in _inputs(names)]


# ---------------------------------------------------------------------------
# edit replay (`repro bench incremental`, `repro bench modules`)
# ---------------------------------------------------------------------------

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


def incremental(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Replay the scripted edits per port through one fresh workspace.

    The cold open is ``NAME``; the comment-only and revert edits leave the
    program as it was, so they are ``NAME/comment`` and ``NAME/revert`` in
    its digest group; the body edit is a new program, ``NAME+body``, with
    ``saved_queries`` against the cold open.
    """
    rows: List[Row] = []
    for name, path in _inputs(names):
        source = path.read_text()
        workspace = Workspace(CheckConfig())
        cold = _row("incremental", name, workspace.open(path.name, source))
        rows.append(cold)
        for label, text in scripted_edits(name, source):
            result = workspace.update(path.name, text)
            solve = result.solve_stats
            row = _row("incremental",
                       f"{name}+body" if label == "body"
                       else f"{name}/{label}", result,
                       warm=int(bool(solve and solve.warm_starts)),
                       rechecked=solve.declarations_rechecked if solve else 0,
                       reused=solve.declarations_reused if solve else 0)
            if label == "body":
                row.counters["saved_queries"] = (cold.counters["queries"]
                                                 - row.counters["queries"])
            rows.append(row)
    return rows


def modules(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Replay project edits over the module splits.

    ``NAME`` is the cold build of a fresh project workspace;
    ``NAME+body`` a body-only edit of one leaf dependency (must re-check
    exactly that module, warm-started); ``NAME+sig`` a signature edit of
    the shared types module (must re-check its transitive dependents,
    still verifying, with the interface fingerprint moved).
    """
    from repro.project.workspace import ProjectWorkspace

    def edit(name: str, workspace, path: pathlib.Path, text: str) -> tuple:
        start = time.perf_counter()
        update = workspace.update(path, text)
        seconds = time.perf_counter() - start
        return update, Row(
            "modules", name,
            counters={"queries": update.queries,
                      "rechecked": len(update.rechecked)},
            seconds=seconds, digest=digest(verdict(workspace.project_result())),
            ok=update.ok)

    rows: List[Row] = []
    for name in (names or MODULE_BENCHMARKS):
        if name not in MODULE_BENCHMARKS:
            continue
        root = benchmarks_dir() / "modules" / name
        if not root.is_dir():
            raise FileNotFoundError(f"no module benchmark at {root}")
        workspace = ProjectWorkspace(root=root)
        built = workspace.check()
        cold = _row("modules", name, built, modules=built.num_modules,
                    batches=built.num_batches)

        body_file, function = MODULE_BODY_EDITS[name]
        body_path = root / body_file
        update, body = edit(f"{name}+body", workspace, body_path,
                            edit_function_body(body_path.read_text(),
                                               function))
        solve = update.results[str(body_path.resolve())].solve_stats
        body.counters["warm"] = int(bool(solve and solve.warm_starts))
        body.counters["saved_queries"] = (cold.counters["queries"]
                                          - body.counters["queries"])

        sig_file, old_line, new_line = MODULE_SIG_EDITS[name]
        sig_path = root / sig_file
        source = sig_path.read_text()
        if old_line not in source:
            raise ValueError(f"{name}: signature-edit anchor not found "
                             f"in {sig_file}")
        update, sig = edit(f"{name}+sig", workspace, sig_path,
                           source.replace(old_line, new_line))
        sig.ok = update.ok and update.summary_changed
        rows += [cold, body, sig]
    return rows


# ---------------------------------------------------------------------------
# engine counters and comparisons (`repro bench smt|store|obs`)
# ---------------------------------------------------------------------------


def smt(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Every port's SMT work counters, a fresh session per check.  (The
    fresh-solver-per-query reference the contexts must beat on
    ``sat_calls`` is a test oracle.)"""
    def run(path: pathlib.Path) -> Tuple[object, dict]:
        result = _check(path, Session(CheckConfig()))
        stats = result.stats or SolverStats()
        return result, {"theory_checks": stats.theory_checks,
                        "model_refutations": stats.model_refutations,
                        "contexts_created": stats.contexts_created,
                        "contexts_reused": stats.contexts_reused,
                        "lemmas_reused": stats.lemmas_reused,
                        "euf_terms_added": stats.euf_terms_added,
                        "linearize_calls": stats.linearize_calls,
                        "sat_decisions": stats.sat_decisions,
                        "sat_conflicts": stats.sat_conflicts,
                        "sat_propagations": stats.sat_propagations}
    return _compare("smt", _inputs(names), [("", run)])


def store(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Every port and module split cold, then (``NAME/warm``) in a fresh
    session whose only link to the first is the persistent store the cold
    run populated — a store-warm check must issue zero queries and zero
    SAT searches.  Each input gets a store of its own, so the cold row's
    ``verdict_bytes``/``solution_bytes`` are the size of exactly the
    entries that input's check wrote."""
    import shutil
    import tempfile

    from repro.store import SOLUTIONS, VERDICTS
    from repro.store.backend import KindStats

    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-store-"))

    def session(path: pathlib.Path) -> Session:
        return Session(CheckConfig(store_path=str(root / path.name)))

    def cold(path: pathlib.Path) -> Tuple[object, dict]:
        checking = session(path)
        result = _check(path, checking)
        kinds = checking.store.stats().kinds
        return result, {
            "verdict_bytes": kinds.get(VERDICTS, KindStats()).bytes,
            "solution_bytes": kinds.get(SOLUTIONS, KindStats()).bytes}

    def warm(path: pathlib.Path) -> Tuple[object, dict]:
        return _check(path, session(path)), {}
    try:
        return _compare("store", _inputs(names, projects=True),
                        [("", cold), ("/warm", warm)])
    finally:
        shutil.rmtree(root, ignore_errors=True)


def noop_span_cost(calls: int = OBS_NOOP_CALLS) -> dict:
    """Time the disabled fast path: one ``span()`` call, tracer off.

    This is the only cost an untraced check pays per instrumentation seam,
    so ``per_call_ns`` × the span count of a traced run bounds the
    disabled-tracer overhead — the number CI gates below 2%."""
    from repro.obs.trace import span, tracer
    t = tracer()
    was_enabled = t.enabled
    t.enabled = False
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", "bench"):
            pass
    elapsed = time.perf_counter() - start
    t.enabled = was_enabled
    return {"calls": calls, "seconds": elapsed,
            "per_call_ns": elapsed / calls * 1e9}


def obs_total(rows: List[Row], noop: dict) -> Row:
    """The ``total`` row of ``bench obs``.

    ``off_overhead_pct`` is the gated number: the no-op span cost times
    the span count of the traced runs, as a share of the untraced
    wall-clock — what tracing costs every user who never turns it on.
    ``on_overhead_pct`` is the measured enabled-tracer overhead (noisy;
    reported, not gated)."""
    off = sum(row.seconds for row in rows if "/" not in row.name)
    on = sum(row.seconds for row in rows if row.name.endswith("/traced"))
    spans = sum(row.counters.get("spans", 0) for row in rows)
    return Row("obs", "total", counters={
        "spans": spans,
        "noop_ns": noop["per_call_ns"],
        "off_overhead_pct": (spans * noop["per_call_ns"] / 1e9 / off * 100.0
                             if off > 0.0 else 0.0),
        "on_overhead_pct": (on - off) / off * 100.0 if off > 0.0 else 0.0,
    }, seconds=off + on)


def obs(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Check each port with the tracer disabled, then (``NAME/traced``)
    enabled, in fresh sessions; enabling the tracer must not change a
    verdict."""
    from repro.obs.trace import tracer
    t = tracer()

    def untraced(path: pathlib.Path) -> Tuple[object, dict]:
        t.reset()
        return _check(path, Session(CheckConfig())), {}

    def traced(path: pathlib.Path) -> Tuple[object, dict]:
        t.enable()
        result = _check(path, Session(CheckConfig()))
        spans = len(t.drain()["events"])
        t.reset()
        return result, {"spans": spans}

    rows = _compare("obs", _inputs(names, OBS_BENCHMARKS),
                    [("", untraced), ("/traced", traced)])
    rows.append(obs_total(rows, noop_span_cost()))
    return rows


# ---------------------------------------------------------------------------
# check-service load generator (`repro bench serve`)
# ---------------------------------------------------------------------------


def _replay(uri: str, texts: List[str]) -> list:
    """The diagnostics of ``texts`` checked in order by one fresh
    sequential workspace — the reference a concurrent client must match."""
    workspace = Workspace(CheckConfig())
    served = []
    for index, text in enumerate(texts):
        result = (workspace.open(uri, text) if index == 0
                  else workspace.update(uri, text))
        served.append([d.to_dict() for d in result.diagnostics])
    return served


def _serve_client(host: str, port: int, tenant: str, name: str,
                  source: str, rows: List[Row],
                  latencies: List[float]) -> None:
    """One editing client: cold check, paced scripted edits, a pipelined
    superseding pair, then a sequential replay of what it was served
    (``TENANT/replay``, in the client's digest group)."""
    from repro.client import Client
    from repro.obs.metrics import percentile
    from repro.wire import ProtocolError

    uri = f"{name}.rsc"
    row = Row("serve", tenant, counters={"requests": 0, "checks_ok": 0,
                                         "cancelled": 0, "backpressure": 0})
    transcript: List[tuple] = []  # (text, diagnostics) of served checks
    replay: List[Row] = []
    try:
        with Client.connect(host, port, tenant=tenant, timeout=600) as client:
            def timed(method: str, text: str) -> None:
                row.counters["requests"] += 1
                start = time.perf_counter()
                payload = getattr(client, method)(uri, text)
                latencies.append((time.perf_counter() - start) * 1000.0)
                row.counters["checks_ok"] += 1
                row.ok = row.ok and payload.ok
                transcript.append((text, payload.diagnostics))

            timed("check", source)
            for _label, text in scripted_edits(name, source):
                time.sleep(1.0 / SERVE_EDIT_RATE)
                timed("update", text)

            # The superseding pair: two pipelined updates of the same URI.
            # The second obsoletes the first — queued (removed before it
            # starts) or in-flight (cancellation token fired mid-check).
            probe = edit_function_body(source, EDIT_TARGETS[name], marker=1)
            first = client.submit("update", uri=uri, text=probe)
            second = client.submit("update", uri=uri, text=source)
            row.counters["requests"] += 2
            for request_id, text in ((first, probe), (second, source)):
                response = client.wait(request_id)
                if response.ok:
                    row.counters["checks_ok"] += 1
                    payload = response.result or {}
                    row.ok = row.ok and bool(payload.get("ok"))
                    transcript.append((text, payload.get("diagnostics", [])))
                elif response.error_code == "cancelled":
                    row.counters["cancelled"] += 1
                elif response.error_code == "backpressure":
                    row.counters["backpressure"] += 1
                else:
                    raise ProtocolError(response.error_code or "?",
                                        response.error_message or "?")
        row.digest = digest([diagnostics for _text, diagnostics in transcript])
        start = time.perf_counter()
        replayed = _replay(uri, [text for text, _diagnostics in transcript])
        replay.append(Row("serve", f"{tenant}/replay",
                          seconds=time.perf_counter() - start,
                          digest=digest(replayed)))
    except Exception as exc:  # noqa: BLE001 — one client's failure must
        # surface in the report, not kill the other load threads.
        print(f"repro bench serve: {tenant} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        row.ok = False
    row.counters["p50_ms"] = percentile(latencies, 50.0)
    row.counters["p99_ms"] = percentile(latencies, 99.0)
    row.seconds = sum(latencies) / 1000.0
    rows += [row, *replay]


def serve(names: Optional[Sequence[str]] = None) -> List[Row]:
    """Load-test the socket server with concurrent editing clients.

    Starts an in-process :class:`repro.service.server.AsyncCheckServer` and
    points :data:`SERVE_CLIENTS` threads at it, each under its own tenant,
    replaying its port's scripted edits at :data:`SERVE_EDIT_RATE` plus one
    pipelined superseding pair; every client's served diagnostics must
    match a sequential replay.  The ``total`` row carries the server's
    cancellation counts, latency percentiles and throughput.
    """
    import threading

    from repro.client import Client
    from repro.obs.metrics import percentile
    from repro.service.server import AsyncCheckServer
    from repro.wire import ServerThread

    ports = [name for name, _path in _inputs(names, SERVE_BENCHMARKS)]
    # Each client thread fills only its own lists.
    per_client: List[List[Row]] = [[] for _ in range(SERVE_CLIENTS)]
    latencies: List[List[float]] = [[] for _ in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    with ServerThread(AsyncCheckServer(CheckConfig())) as server:
        threads = []
        for index in range(SERVE_CLIENTS):
            name = ports[index % len(ports)]
            threads.append(threading.Thread(
                target=_serve_client,
                args=(server.host, server.port, f"client-{index}", name,
                      source_of(name), per_client[index], latencies[index]),
                name=f"client-{index}"))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        with Client.connect(server.host, server.port) as control:
            totals = control.stats().to_json().get("totals", {})
            control.shutdown()
    rows = [row for client_rows in per_client for row in client_rows]
    clients = [row for row in rows if "/" not in row.name]
    queued = int(totals.get("cancelled_queued", 0))
    inflight = int(totals.get("cancelled_inflight", 0))
    checks_ok = sum(row.counters["checks_ok"] for row in clients)
    every = [ms for client in latencies for ms in client]
    rows.append(Row("serve", "total", counters={
        "requests": sum(row.counters["requests"] for row in clients),
        "checks_ok": checks_ok,
        "cancelled": queued + inflight,
        "cancelled_queued": queued,
        "cancelled_inflight": inflight,
        "p50_ms": percentile(every, 50.0),
        "p99_ms": percentile(every, 99.0),
        "throughput_cps": checks_ok / wall if wall else 0.0,
    }, seconds=wall))
    return rows


# ---------------------------------------------------------------------------
# one report, one table renderer, one gate
# ---------------------------------------------------------------------------

#: Every bench family, in run order: ``family(names) -> List[Row]``.
FAMILIES: Dict[str, Callable[[Optional[Sequence[str]]], List[Row]]] = {
    "figure6": figure6,
    "figure7": figure7,
    "incremental": incremental,
    "modules": modules,
    "smt": smt,
    "store": store,
    "serve": serve,
    "obs": obs,
}

#: Schema identifier stamped into bench reports.
REPORT_SCHEMA = "repro-bench/2"

#: ``base`` bounds: counters may grow to ``max(base * COUNTER_FACTOR,
#: base + COUNTER_SLACK)`` (small counts wobble with solver-cache layout);
#: timings (``seconds``, ``*_ms``) to ``base * TIME_FACTOR`` and
#: throughputs (``*_cps``) down to ``base / TIME_FACTOR`` — generous,
#: because CI machines are noisy.
COUNTER_FACTOR = 1.25
COUNTER_SLACK = 5
TIME_FACTOR = 4.0


def run(families: Sequence[str],
        names: Optional[Sequence[str]] = None) -> dict:
    """Run the named families (restricted to the ``names`` ports, if
    given) and collect their rows into one report."""
    rows: List[Row] = []
    for family in families:
        rows.extend(FAMILIES[family](names))
    return {"schema": REPORT_SCHEMA, "rows": [row.to_dict() for row in rows]}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render(report: dict) -> str:
    """One table per family, drawn from the report exactly as written and
    gated (so a printed number is never a second measurement)."""
    blocks = []
    benches = dict.fromkeys(row["bench"] for row in report["rows"])
    for bench in benches:
        rows = [row for row in report["rows"] if row["bench"] == bench]
        columns = list(dict.fromkeys(
            name for row in rows for name in row["counters"]))
        table = [["name", *columns, "seconds", "digest", "ok"]]
        for row in rows:
            table.append([row["name"],
                          *(_cell(row["counters"].get(c)) for c in columns),
                          f"{row['seconds']:.2f}", row["digest"][:8],
                          "yes" if row["ok"] else "NO"])
        widths = [max(len(line[i]) for line in table)
                  for i in range(len(table[0]))]
        lines = ["  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                           for i, (cell, width)
                           in enumerate(zip(line, widths)))
                 for line in table]
        lines.insert(1, "-" * len(lines[0]))
        blocks.append("\n".join([f"[{bench}]", *lines]))
    return "\n\n".join(blocks)


def _violation(kind: str, metric: str, value: float,
               bound: float) -> Optional[str]:
    """Why ``value`` breaks the rule ``{kind: bound}``, or None."""
    if kind == "eq":
        return None if value == bound else f"expected exactly {bound:g}"
    if kind == "min":
        return None if value >= bound else f"below the minimum {bound:g}"
    if kind == "max":
        return None if value < bound else f"not below the ceiling {bound:g}"
    if kind != "base":
        raise ValueError(f"unknown rule kind {kind!r} for {metric}")
    if metric == "seconds" or metric.endswith("_ms"):
        limit = bound * TIME_FACTOR
        return None if value <= limit else (
            f"above baseline {bound:g} x{TIME_FACTOR:g} = {limit:g}")
    if metric.endswith("_cps"):
        limit = bound / TIME_FACTOR
        return None if value >= limit else (
            f"below baseline {bound:g} /{TIME_FACTOR:g} = {limit:g}")
    limit = max(bound * COUNTER_FACTOR, bound + COUNTER_SLACK)
    return None if value <= limit else (
        f"above baseline {bound:g} (allowed up to {limit:g})")


def gate(report: dict, baseline: Optional[dict] = None) -> List[str]:
    """Every failure of ``report``, each naming bench, row and metric.

    Without a baseline: every row must be ``ok``, and the rows of one
    input (``INPUT`` and ``INPUT/VARIANT`` within a family) must share one
    verdict digest.  A baseline (``{bench: {row: {metric: {kind:
    bound}}}}``) adds: each named row must be present and each rule must
    hold — ``eq`` (exactly), ``min`` (at least), ``max`` (strictly below)
    or ``base`` (the bound :func:`_violation` derives from a recorded
    baseline value).  ``seconds`` names the row's wall-clock, any other
    metric a counter.
    """
    failures: List[str] = []
    by_key = {}
    groups: Dict[tuple, Dict[str, List[str]]] = {}
    for row in report["rows"]:
        by_key[row["bench"], row["name"]] = row
        if not row["ok"]:
            failures.append(f"{row['bench']}/{row['name']}: not ok "
                            "(unsafe, or the step failed)")
        if row["digest"]:
            group = groups.setdefault(
                (row["bench"], row["name"].split("/")[0]), {})
            group.setdefault(row["digest"], []).append(row["name"])
    for (bench, name), digests in groups.items():
        if len(digests) > 1:
            failures.append(
                f"{bench}/{name}: verdict digests differ ("
                + "; ".join(f"{', '.join(rows)}: {value[:8]}"
                            for value, rows in digests.items())
                + ") — fix before merging")
    for bench, expected in (baseline or {}).items():
        for name, metrics in expected.items():
            row = by_key.get((bench, name))
            if row is None:
                failures.append(f"{bench}/{name}: missing from the report")
                continue
            for metric, rule in metrics.items():
                value = (row["seconds"] if metric == "seconds"
                         else row["counters"].get(metric))
                if value is None:
                    failures.append(f"{bench}/{name} {metric}: missing")
                    continue
                for kind, bound in rule.items():
                    why = _violation(kind, metric, value, bound)
                    if why:
                        failures.append(
                            f"{bench}/{name} {metric}: {value:g} {why}")
    return failures
