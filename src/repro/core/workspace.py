"""The incremental workspace — the primary checking API.

A :class:`Workspace` holds *long-lived documents*: open a document once,
then push edited text through :meth:`Workspace.update` and only the work the
edit actually invalidated is redone.  One SMT solver (and its query cache)
is shared by every document for the lifetime of the workspace.

::

    ws = Workspace(CheckConfig())
    result = ws.open("a.rsc", source)          # cold check
    result = ws.update("a.rsc", edited)        # incremental re-check
    diags  = ws.diagnostics("a.rsc")           # last verdict, no work
    ws.close("a.rsc")

Three layers of reuse, from cheapest to deepest:

1. **Artifact cache** — per document, keyed by content hash (bounded by
   ``CheckConfig.document_cache_limit``).  Re-checking text the document has
   seen before (undo, revert, editor churn) returns the cached
   :class:`CheckResult` without touching the pipeline.
2. **Warm-started fixpoint** — constraints are partitioned per checkable
   declaration (function / method / constructor).  An edit that only
   changes declaration *bodies* re-seeds the liquid fixpoint with the
   kappas of the changed declarations, starting every unchanged kappa at
   its previous fixpoint value; the dependency-directed worklist then only
   revisits what a weakening actually reaches.
3. **Obligation reuse** — concrete verification conditions of unchanged
   declarations keep their previous verdicts (the formulas are identical),
   so no SMT query is issued for them at all.

Warm starts are *sound by construction*: the workspace falls back to a cold
solve whenever the signature environment changed (specs, type aliases,
class shapes, interfaces, enums, qualifier declarations, constructor
bodies), declarations were added or removed, a kappa is shared between
partitions, or the deterministic re-generation produced different kappa
names — every case in which reusing the previous solution could diverge
from a from-scratch check.  The test-suite asserts warm results are
bit-identical to cold checks on every fixture and benchmark.

One-shot checks go through the same object: :meth:`Workspace.check_source`,
:meth:`~Workspace.check_file`, :meth:`~Workspace.check_program`,
:meth:`~Workspace.check_files` (with its ``jobs`` process pool) and
:meth:`~Workspace.check_project` keep no per-document state — each is a
cold check that computes no fingerprints and no warm plan — but they share
the workspace's solver, so batch runs (benchmark suites, generate-and-check
loops) amortise repeated verification conditions.
:class:`repro.core.session.Session` is another name for this class.

The staged pipeline (parse → ssa → constraints → solve → verify) is public
too; each stage returns the artifact the next one consumes, with wall-clock
time recorded per stage in a :class:`repro.core.result.StageTimings`::

    parsed = ws.parse(source, "a.rsc")   # -> ParseStage (AST)
    ssa    = ws.ssa(parsed)              # -> SsaStage   (IRSC bodies)
    cons   = ws.constraints(ssa)         # -> ConstraintsStage
    solved = ws.solve(cons)              # -> SolveStage (kappa solution)
    result = ws.verify(solved)           # -> CheckResult
"""

from __future__ import annotations

import hashlib
import pathlib
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import (
    Diagnostic,
    DiagnosticBag,
    ErrorKind,
    ParseError,
    Severity,
    SourceSpan,
)
from repro.lang import ast, parse_program
from repro.node import Record, field, replace
from repro.smt.solver import Solver, SolverStats
from repro.ssa import ir
from repro.ssa.transform import SsaTransformer
from repro.core.cancel import CancelToken, CheckCancelled, checkpoint
from repro.core.checker import Checker
from repro.core.config import CheckConfig
from repro.core.fingerprint import signature_fingerprint, unit_fingerprints
from repro.core.liquid.fixpoint import (
    LiquidSolver,
    ObligationOutcome,
    Solution,
    kappa_apps,
)
from repro.core.liquid.qualifiers import QualifierPool
from repro.core.result import BatchResult, CheckResult, SolveStats, StageTimings
from repro.obs.trace import span as trace_span, stage_span, tracer
from repro.core.subtype import SubtypeSplitter


def nesting_too_deep(filename: str) -> Diagnostic:
    """RSC-INT-001 for an input nested past the interpreter stack.

    The logic-layer traversals are iterative, but the recursive-descent
    parser and the checker's expression synthesis follow the source's
    nesting depth; a pathological input must surface as this diagnostic,
    not as a crash."""
    return Diagnostic(
        ErrorKind.INTERNAL,
        "expression nesting is too deep for the checker "
        "(interpreter recursion limit reached); flatten the "
        "expression or split the declaration",
        SourceSpan(filename=filename), code="RSC-INT-001")


def parse_source(source: str, filename: str
                 ) -> Tuple[Optional[ast.Program], List[Diagnostic]]:
    """Parse ``source``: ``(program, [])``, or ``(None, [diagnostic])``
    with RSC-PARSE-001 for a syntax error and RSC-INT-001 for input
    nested past the parser's stack.  Every parse of checked text (a
    workspace stage, a project module) comes through here."""
    try:
        return parse_program(source, filename), []
    except ParseError as exc:
        span = exc.span
        if span.filename != filename:
            # a ParseError raised without a span would otherwise lose the
            # file being checked
            span = span.with_filename(filename)
        return None, [Diagnostic(ErrorKind.PARSE, exc.message, span,
                                 code="RSC-PARSE-001")]
    except RecursionError:
        return None, [nesting_too_deep(filename)]


# ---------------------------------------------------------------------------
# stage artifacts
# ---------------------------------------------------------------------------


class ParseStage(Record):
    """Output of :meth:`Workspace.parse`: the AST (or a parse diagnostic)."""

    source: str
    filename: str
    program: Optional[ast.Program]
    diagnostics: List[Diagnostic]
    timings: StageTimings

    @property
    def ok(self) -> bool:
        return self.program is not None


class SsaStage(Record):
    """Output of :meth:`Workspace.ssa`: SSA/IRSC bodies keyed by function name.

    Purely inspectable — the checker re-derives SSA per callable while
    generating constraints — but handy for debugging transforms and for
    tooling that wants the intermediate representation.
    """

    parse: ParseStage
    functions: Dict[str, ir.IRFunction]
    timings: StageTimings

    @property
    def filename(self) -> str:
        return self.parse.filename


class ConstraintsStage(Record):
    """Output of :meth:`Workspace.constraints`: the constraint system.

    The ``store_*`` fields carry the persistent-store bookkeeping of this
    check across the staged pipeline (all inert when no store is active):
    the document's artifact key, the solution/memos loaded for it, the
    recording sink mirroring every verdict the solver serves, and whether
    the solve stage replayed the stored solution."""

    parse: ParseStage
    checker: Checker
    diags: DiagnosticBag
    stats_base: SolverStats
    timings: StageTimings
    store_key: Optional[str] = None
    store_solution: Optional[Solution] = None
    store_memos_hit: bool = False
    store_recorded: Optional[Dict] = None
    store_plan_used: bool = False

    @property
    def num_subtypings(self) -> int:
        return len(self.checker.constraints.subtypings)

    @property
    def num_implications(self) -> int:
        return len(self.checker.constraints.implications)


class SolveStage(Record):
    """Output of :meth:`Workspace.solve`: the liquid fixpoint solution."""

    constraints: ConstraintsStage
    liquid: LiquidSolver
    solution: Solution
    timings: StageTimings

    @property
    def solve_stats(self):
        """Typed fixpoint-engine counters for this solve run."""
        return self.liquid.stats


# ---------------------------------------------------------------------------
# incremental bookkeeping
# ---------------------------------------------------------------------------


class WarmPlan(Record):
    """What an edit invalidated, and what can be carried over."""

    previous: Solution
    dirty_kappas: Set[str]
    dirty_owners: Set[str]
    reused_owners: Set[str]
    #: owner -> previous obligation outcomes, in emission order
    reuse_concrete: Dict[str, List[ObligationOutcome]]


class Snapshot(Record):
    """Everything worth keeping from one check of one document version.

    ``partition_local`` records that the constraint system which *produced*
    ``solution`` kept every kappa inside its own partition — a warm start
    may only reuse a solution whose producing system had that property,
    otherwise a stale cross-partition weakening could be carried over.
    """

    content_hash: str
    result: CheckResult
    solution: Optional[Solution] = None
    signature_fp: Optional[str] = None
    unit_fps: Dict[str, str] = field(default_factory=dict)
    kappas_by_owner: Dict[str, List[str]] = field(default_factory=dict)
    concrete_by_owner: Dict[str, List[ObligationOutcome]] = \
        field(default_factory=dict)
    partition_local: bool = False

    @property
    def warmable(self) -> bool:
        return (self.solution is not None and self.signature_fp is not None
                and self.partition_local)


class Document:
    """One open document: its text plus a bounded snapshot cache.

    ``last_good`` is the most recent *warmable* snapshot — kept separately
    from ``current`` so a transient syntax error mid-edit does not force
    the next successful check back to a cold solve.
    """

    def __init__(self, uri: str) -> None:
        self.uri = uri
        self.text: str = ""
        self.version = 0
        self.current: Optional[Snapshot] = None
        self.last_good: Optional[Snapshot] = None
        self._snapshots: "OrderedDict[str, Snapshot]" = OrderedDict()

    def cached(self, content_hash: str) -> Optional[Snapshot]:
        snapshot = self._snapshots.get(content_hash)
        if snapshot is not None:
            self._snapshots.move_to_end(content_hash)
        return snapshot

    def store(self, snapshot: Snapshot, limit: int) -> None:
        self._snapshots[snapshot.content_hash] = snapshot
        self._snapshots.move_to_end(snapshot.content_hash)
        while len(self._snapshots) > limit:
            self._snapshots.popitem(last=False)


# ---------------------------------------------------------------------------
# the workspace
# ---------------------------------------------------------------------------


class Workspace:
    """The checking object: long-lived documents checked incrementally and
    one-shot cold checks, all over one shared solver."""

    def __init__(self, config: Optional[CheckConfig] = None,
                 solver: Optional[Solver] = None) -> None:
        self.config = config or CheckConfig()
        opts = self.config.solver
        self.solver = solver or Solver(
            max_theory_iterations=opts.max_theory_iterations,
            cache_size_limit=opts.cache_size_limit,
            context_cache_limit=opts.context_cache_limit)
        self._documents: Dict[str, Document] = {}
        self.checks_run = 0
        self.checks_cancelled = 0
        self.artifact_cache_hits = 0
        #: persistent cross-process artifact store (None when disabled)
        with trace_span("store.open", "store",
                        mode=self.config.store_mode) as sp:
            self.store = self._store_fp = None
            if self.config.store_path is not None:
                # Only a config that names a store loads the store package.
                from repro.store import config_fingerprint, open_store
                self.store = open_store(self.config)
                self._store_fp = config_fingerprint(self.config)
            sp.note(enabled=self.store is not None)

    # -- document lifecycle ------------------------------------------------

    def open(self, uri: str, text: Optional[str] = None,
             token: Optional[CancelToken] = None) -> CheckResult:
        """Open (or re-open) a document and check it.

        With ``text=None`` the document is read from ``uri`` as a path.
        Re-opening an already-open document behaves like :meth:`update`.
        A ``token`` makes the check cancellable: the pipeline polls it at
        stage boundaries (and inside the solve/verify loops) and raises
        :class:`repro.core.cancel.CheckCancelled` without recording a
        snapshot or writing to the artifact store — the document's previous
        verdict stays current.
        """
        if text is None:
            text = pathlib.Path(uri).read_text()
        document = self._documents.get(uri)
        if document is None:
            document = Document(uri)
            self._documents[uri] = document
        return self._check_document(document, text, token)

    def update(self, uri: str, text: Optional[str] = None,
               token: Optional[CancelToken] = None) -> CheckResult:
        """Replace an open document's text and re-check incrementally."""
        document = self._documents.get(uri)
        if document is None:
            raise KeyError(f"document not open: {uri!r}")
        if text is None:
            text = pathlib.Path(uri).read_text()
        return self._check_document(document, text, token)

    def close(self, uri: str) -> None:
        """Forget a document and every cached artifact for it."""
        if uri not in self._documents:
            raise KeyError(f"document not open: {uri!r}")
        del self._documents[uri]

    def diagnostics(self, uri: str) -> List[Diagnostic]:
        """The open document's current diagnostics (no re-check)."""
        return list(self.result(uri).diagnostics)

    def result(self, uri: str) -> CheckResult:
        """The open document's current :class:`CheckResult` (no re-check)."""
        document = self._documents.get(uri)
        if document is None or document.current is None:
            raise KeyError(f"document not open: {uri!r}")
        return document.current.result

    def documents(self) -> List[str]:
        """URIs of the open documents, in opening order."""
        return list(self._documents)

    @property
    def cache_size(self) -> int:
        return self.solver.cache_size

    def reset_cache(self) -> None:
        """Drop the shared solver's query cache (statistics are kept)."""
        self.solver.clear_cache()

    # -- one-shot checks ---------------------------------------------------

    def check_source(self, source: str, filename: str = "<input>",
                     token: Optional[CancelToken] = None) -> CheckResult:
        """Cold-check one nanoTS source string; no document stays open.

        The inspectable :meth:`ssa` stage is skipped — the checker
        re-derives SSA per callable while generating constraints — so its
        timing stays 0.  A fired ``token`` raises
        :class:`repro.core.cancel.CheckCancelled`.
        """
        checkpoint(token)
        return self._check_parsed(self.parse(source, filename), token)[0]

    def check_program(self, program: ast.Program) -> CheckResult:
        """Cold-check an already-parsed program (stages 3-5)."""
        parsed = ParseStage(source="", filename=program.source_name,
                            program=program, diagnostics=[],
                            timings=StageTimings())
        return self._check_parsed(parsed)[0]

    def check_file(self, path: Union[str, pathlib.Path],
                   token: Optional[CancelToken] = None) -> CheckResult:
        """Cold-check one file.  Raises :class:`OSError` if it cannot be
        read."""
        path = pathlib.Path(path)
        return self.check_source(path.read_text(), filename=str(path),
                                 token=token)

    def check_files(self, paths: Sequence[Union[str, pathlib.Path]],
                    jobs: Optional[int] = None) -> BatchResult:
        """Cold-check many files, aggregating diagnostics and solver
        statistics; an unreadable file is an RSC-INT-001 verdict.

        With ``jobs > 1`` the paths are partitioned over worker processes,
        each with its own workspace and solver (cache amortisation is then
        per worker); with one job every file shares this solver's cache.
        """
        paths = [pathlib.Path(p) for p in paths]
        jobs = jobs if jobs is not None else self.config.jobs
        start = time.perf_counter()
        parallel: Optional[tuple] = None
        if jobs > 1 and len(paths) > 1:
            parallel = self._check_files_parallel(paths, min(jobs, len(paths)))
        if parallel is not None:
            results, stats = parallel
        else:
            base = self.solver.stats.copy()
            results = [self._check_readable(p) for p in paths]
            stats = self.solver.stats.delta_since(base)
        return BatchResult(results=results, stats=stats,
                           time_seconds=time.perf_counter() - start)

    def _check_readable(self, path: pathlib.Path) -> CheckResult:
        try:
            return self.check_file(path)
        except OSError as exc:
            diag = Diagnostic(ErrorKind.INTERNAL, f"cannot read: {exc}",
                              SourceSpan(filename=str(path)),
                              code="RSC-INT-001")
            return CheckResult(diagnostics=[diag], filename=str(path))

    def _check_files_parallel(self, paths: List[pathlib.Path],
                              jobs: int) -> Optional[tuple]:
        """Fan the paths out over worker *processes* (the checker is pure
        CPU-bound Python, so threads would serialise on the GIL).  Returns
        None when no process pool can be spawned (restricted environments);
        the caller then falls back to the sequential shared-cache path."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        chunks: List[List[str]] = [[] for _ in range(jobs)]
        for index, path in enumerate(paths):
            chunks[index % jobs].append(str(path))
        parent_tracer = tracer()
        trace_id = parent_tracer.trace_id if parent_tracer.enabled else None
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_check_chunk, self.config, chunk,
                                       trace_id)
                           for chunk in chunks]
                per_chunk = [f.result() for f in futures]
        except (OSError, RuntimeError, BrokenProcessPool):
            return None
        by_path: Dict[str, CheckResult] = {}
        stats = SolverStats()
        for results, worker_stats, checked, trace in per_chunk:
            stats.merge(worker_stats)
            self.checks_run += checked
            if trace is not None:
                parent_tracer.ingest(trace["events"],
                                     trace["slow_queries"])
            for result in results:
                by_path[result.filename] = result
        return [by_path[str(p)] for p in paths], stats

    def check_project(self, root: Union[str, pathlib.Path],
                      pattern: str = "**/*.rsc") -> "ProjectResult":
        """Cold-check the *module graph* rooted at ``root``.

        Every ``pattern`` match becomes a module; ``import``/``export``
        declarations link them and each module is checked against its
        dependencies' interface summaries in dependency order.  This is a
        :meth:`repro.project.ProjectWorkspace.check` run on this workspace:
        its solver and artifact store check the modules, each module that
        is checked counts in :attr:`checks_run` (a module skipped on an
        import cycle does not, as for serve's ``project_open``), and the
        module documents are closed again.  Raises
        :class:`NotADirectoryError` when ``root`` is not a directory.
        """
        from repro.project.workspace import ProjectWorkspace
        project = ProjectWorkspace(root=root, pattern=pattern,
                                   workspace=self)
        try:
            return project.check()
        finally:
            project.close()

    # -- the incremental check ---------------------------------------------

    def _check_document(self, document: Document, text: str,
                        token: Optional[CancelToken] = None) -> CheckResult:
        try:
            with trace_span("pipeline.check", "pipeline",
                            uri=document.uri):
                return self._check_document_inner(document, text, token)
        except CheckCancelled:
            # Counted here (not at the inner stage boundaries) so a check
            # aborted before it even built constraints still registers.
            self.checks_cancelled += 1
            raise

    def _check_document_inner(self, document: Document, text: str,
                              token: Optional[CancelToken] = None
                              ) -> CheckResult:
        document.version += 1
        document.text = text
        checkpoint(token)
        content_hash = hashlib.sha256(text.encode()).hexdigest()
        hit = document.cached(content_hash)
        if hit is not None:
            self.artifact_cache_hits += 1
            document.current = hit
            if hit.warmable:
                document.last_good = hit
            return self._cache_hit_result(hit)
        result, snapshot = self._check_parsed(
            self.parse(text, document.uri), token, document, content_hash)
        if snapshot is None:
            return result  # nothing is cached for this text
        document.store(snapshot, self.config.document_cache_limit)
        document.current = snapshot
        if snapshot.warmable:
            document.last_good = snapshot
        return result

    def _check_parsed(self, parsed: ParseStage,
                      token: Optional[CancelToken] = None,
                      document: Optional[Document] = None,
                      content_hash: str = ""
                      ) -> Tuple[CheckResult, Optional[Snapshot]]:
        """Stages 3-5 of every check after the parse.

        A failed parse is its own verdict, and input nested too deeply for
        the checker is an RSC-INT-001 verdict, not a crash.  A cancelled or
        failed check leaves no trace: the store recording sink is detached
        so nothing is written back.  With a ``document`` the check is
        fingerprinted, may warm-start from the document's last good
        snapshot, and returns the snapshot to cache (``None`` when nothing
        may be cached); without one it is a cold one-shot check."""
        if not parsed.ok:
            self.checks_run += 1
            result = CheckResult(diagnostics=list(parsed.diagnostics),
                                 time_seconds=parsed.timings.total,
                                 filename=parsed.filename,
                                 timings=parsed.timings)
            return result, Snapshot(content_hash, result)
        try:
            checkpoint(token)
            cons = self.constraints(parsed)
            try:
                checkpoint(token)
                if document is not None:
                    return self._solve_document(document, content_hash,
                                                cons, token)
                solved = self.solve(cons, token=token)
                checkpoint(token)
                return self.verify(solved, token=token), None
            except BaseException:
                self._store_abort(cons)
                raise
        except RecursionError:
            self.checks_run += 1
            return CheckResult(
                diagnostics=[nesting_too_deep(parsed.filename)],
                time_seconds=parsed.timings.total,
                filename=parsed.filename, timings=parsed.timings), None

    def _solve_document(self, document: Document, content_hash: str,
                        cons: ConstraintsStage,
                        token: Optional[CancelToken]
                        ) -> Tuple[CheckResult, Snapshot]:
        """Solve and verify a document's constraints, warm-started from its
        last good snapshot when the edit allows it."""
        program = cons.parse.program
        sig_fp = signature_fingerprint(program)
        unit_fps = unit_fingerprints(program)
        local = _partition_local(cons.checker)
        plan = (self._plan(document.last_good, sig_fp, unit_fps, cons)
                if local else None)
        solved = self.solve(cons, plan, token)
        if plan is None and not cons.store_plan_used:
            solved.liquid.stats.declarations_rechecked = len(unit_fps)
        checkpoint(token)
        result, outcomes = self._verify(solved, plan, token)
        return result, Snapshot(
            content_hash, result,
            solution=solved.solution,
            signature_fp=sig_fp,
            unit_fps=unit_fps,
            kappas_by_owner=_kappas_by_owner(cons.checker),
            concrete_by_owner=_group_by_owner(outcomes),
            partition_local=local)

    def _plan(self, previous: Optional[Snapshot], sig_fp: str,
              unit_fps: Dict[str, str],
              cons: ConstraintsStage) -> Optional[WarmPlan]:
        """Decide what the edit invalidated; ``None`` means cold solve.

        ``previous`` is the last *warmable* snapshot (its producing system
        was partition-local), and the caller has already established that
        the new system is partition-local too — the warm-soundness
        precondition of :meth:`LiquidSolver.warm_solution` therefore holds
        on both sides of the reuse.
        """
        if previous is None or not previous.warmable:
            return None
        if previous.signature_fp != sig_fp:
            return None
        if set(unit_fps) != set(previous.unit_fps):
            return None  # declarations added or removed

        checker = cons.checker
        owners = checker.kappas.owners_of()
        dirty_owners = {owner for owner, fp in unit_fps.items()
                        if previous.unit_fps.get(owner) != fp}
        kappas_by_owner = _kappas_by_owner(checker)
        new_concrete = _group_by_owner(
            imp for imp in checker.constraints.implications
            if LiquidSolver._goal_kappa(imp) is None)

        reuse_concrete: Dict[str, List[ObligationOutcome]] = {}
        for owner in unit_fps:
            if owner in dirty_owners:
                continue
            # Deterministic re-generation must have reproduced the same
            # kappa names and the same number of concrete obligations;
            # anything else demotes the declaration to dirty.
            if kappas_by_owner.get(owner, []) != \
                    previous.kappas_by_owner.get(owner, []):
                dirty_owners.add(owner)
                continue
            prev_outcomes = previous.concrete_by_owner.get(owner, [])
            if len(new_concrete.get(owner, [])) != len(prev_outcomes):
                dirty_owners.add(owner)
                continue
            reuse_concrete[owner] = prev_outcomes

        dirty_kappas = {kappa for kappa, owner in owners.items()
                        if owner is None or owner in dirty_owners
                        or owner not in unit_fps}
        reused_owners = set(unit_fps) - dirty_owners
        return WarmPlan(previous=previous.solution,
                        dirty_kappas=dirty_kappas,
                        dirty_owners=dirty_owners,
                        reused_owners=reused_owners,
                        reuse_concrete=reuse_concrete)

    def _cache_hit_result(self, snapshot: Snapshot) -> CheckResult:
        """The verdict for text the document has already checked: the cached
        diagnostics, but with this-check counters zeroed — a cache hit does
        no solver work, and reporting the historical query count would make
        reuse look like effort."""
        solve = None
        if snapshot.result.solve_stats is not None:
            solve = SolveStats()
            solve.declarations_reused = len(snapshot.unit_fps)
        stats = None if snapshot.result.stats is None else SolverStats()
        return replace(snapshot.result, stats=stats, solve_stats=solve,
                       time_seconds=0.0, timings=StageTimings())

    # -- staged pipeline ---------------------------------------------------

    def parse(self, source: str, filename: str = "<input>") -> ParseStage:
        """Stage 1: lex and parse ``source`` into an AST."""
        timings = StageTimings()
        with stage_span(timings, "parse", module=filename):
            program, diagnostics = parse_source(source, filename)
        return ParseStage(source, filename, program, diagnostics, timings)

    def ssa(self, parsed: ParseStage) -> SsaStage:
        """Stage 2: SSA-convert every callable body (inspectable IRSC)."""
        if parsed.program is None:
            raise ValueError("cannot run the ssa stage on a failed parse")
        functions: Dict[str, ir.IRFunction] = {}
        with stage_span(parsed.timings, "ssa", module=parsed.filename):
            for decl in parsed.program.declarations:
                if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
                    functions[decl.name] = SsaTransformer().function(decl)
                elif isinstance(decl, ast.ClassDecl):
                    for method in decl.methods:
                        if method.body is None:
                            continue
                        wrapped = ast.FunctionDecl(
                            name=f"{decl.name}.{method.sig.name}",
                            params=method.sig.params, ret=method.sig.ret,
                            body=method.body, span=method.sig.span)
                        functions[wrapped.name] = \
                            SsaTransformer().function(wrapped)
        return SsaStage(parsed, functions, parsed.timings)

    def constraints(self, stage: Union[ParseStage, SsaStage]) -> ConstraintsStage:
        """Stage 3: generate and flatten the subtyping constraints."""
        parsed = stage.parse if isinstance(stage, SsaStage) else stage
        if parsed.program is None:
            raise ValueError("cannot generate constraints on a failed parse")
        store_key, store_solution, memos_hit, recorded = \
            self._store_begin(parsed)
        stats_base = self.solver.stats.copy()
        with stage_span(parsed.timings, "constraints",
                        module=parsed.filename):
            try:
                diags = DiagnosticBag()
                diags.extend(parsed.diagnostics)
                checker = Checker(parsed.program, diags,
                                  pool=self._new_pool())
                with checker.invariants():
                    checker.run()
                    splitter = SubtypeSplitter(checker.table,
                                               checker.constraints)
                    for constraint in list(checker.constraints.subtypings):
                        splitter.split(constraint)
            except BaseException:
                if recorded is not None:
                    self.solver.stop_recording(recorded)
                raise
        return ConstraintsStage(parsed, checker, diags, stats_base,
                                parsed.timings, store_key=store_key,
                                store_solution=store_solution,
                                store_memos_hit=memos_hit,
                                store_recorded=recorded)

    def _store_begin(self, parsed: ParseStage):
        """Persistent store, read side: replay a previous process's verdict
        memos into the solver cache, fetch the stored kappa solution, and
        attach a recording sink mirroring every verdict this check serves,
        for write-back.  Keyed by content hash, so it is
        skipped for programmatically built ASTs with no source text."""
        if self.store is None or not parsed.source:
            return None, None, False, None
        content_hash = hashlib.sha256(parsed.source.encode()).hexdigest()
        store_key = self.store.document_key(content_hash, self._store_fp)
        memos = self.store.load_verdicts(store_key)
        memos_hit = False
        if memos and hasattr(self.solver, "seed_cache"):
            memos_hit = self.solver.seed_cache(memos) > 0
        store_solution = self.store.load_solution(store_key)
        recorded: Optional[Dict] = None
        if (not self.store.readonly
                and hasattr(self.solver, "record_queries")):
            recorded = {}
            self.solver.record_queries(recorded)
        return store_key, store_solution, memos_hit, recorded

    def solve(self, stage: ConstraintsStage,
              plan: Optional[WarmPlan] = None,
              token: Optional[CancelToken] = None) -> SolveStage:
        """Stage 4: liquid fixpoint — infer the kappa refinements.

        With a :class:`WarmPlan` the fixpoint starts from the previous
        solution and only the dirty partitions' kappas are re-seeded.
        """
        checker = stage.checker
        with stage_span(stage.timings, "solve",
                        module=stage.parse.filename):
            if plan is None:
                plan = self._store_plan(stage)
            liquid = LiquidSolver(
                self.solver, checker.pool, checker.kappas,
                max_iterations=self.config.max_fixpoint_iterations)
            if plan is not None:
                solution = liquid.solve(checker.constraints.implications,
                                        previous=plan.previous,
                                        dirty_kappas=plan.dirty_kappas,
                                        cancel=token)
                liquid.stats.declarations_rechecked = len(plan.dirty_owners)
                liquid.stats.declarations_reused = len(plan.reused_owners)
            else:
                solution = liquid.solve(checker.constraints.implications,
                                        cancel=token)
        return SolveStage(stage, liquid, solution, stage.timings)

    def _store_plan(self, stage: ConstraintsStage) -> Optional[WarmPlan]:
        """A stored solution for this exact (content, config) key *is* the
        fixpoint this deterministic pipeline would recompute: replay it with
        an empty dirty set, so the worklist never runs.  Sound without
        partition-locality — nothing is carried across an edit, the key
        equality is the whole-document match — but the replay still flows
        through the ordinary warm-start machinery (and through
        :meth:`LiquidSolver.check_concrete` against the seeded verdict
        memos).  A kappa-name mismatch (hash collision, solver divergence)
        demotes the hit to a cold solve."""
        if stage.store_solution is None:
            return None
        checker = stage.checker
        if set(stage.store_solution) != set(checker.kappas.kappas):
            return None
        owners = {owner for owner in checker.kappas.owners_of().values()
                  if owner is not None}
        stage.store_plan_used = True
        return WarmPlan(previous=stage.store_solution, dirty_kappas=set(),
                        dirty_owners=set(), reused_owners=owners,
                        reuse_concrete={})

    def verify(self, stage: SolveStage,
               plan: Optional[WarmPlan] = None,
               token: Optional[CancelToken] = None) -> CheckResult:
        """Stage 5: discharge the concrete obligations, build the verdict."""
        result, _outcomes = self._verify(stage, plan, token)
        return result

    def _verify(self, stage: SolveStage, plan: Optional[WarmPlan],
                token: Optional[CancelToken] = None
                ) -> Tuple[CheckResult, List[ObligationOutcome]]:
        cons = stage.constraints
        checker = cons.checker
        with stage_span(stage.timings, "verify",
                        module=cons.parse.filename):
            if plan is None:
                results = stage.liquid.check_concrete(
                    checker.constraints.implications, stage.solution,
                    cancel=token)
            else:
                results = self._verify_selective(stage, plan)
            for outcome in results:
                if outcome.ok:
                    continue
                cons.diags.error(outcome.implication.kind, outcome.message(),
                                 outcome.span, code=outcome.code)
        diagnostics = list(cons.diags)
        if self.config.warnings_as_errors:
            diagnostics = [replace(d, severity=Severity.ERROR)
                           if d.severity is Severity.WARNING else d
                           for d in diagnostics]
        self.checks_run += 1
        result = CheckResult(
            diagnostics=diagnostics,
            checker_stats=checker.stats,
            stats=self.solver.stats.delta_since(cons.stats_base),
            solve_stats=stage.solve_stats,
            kappa_solution=stage.solution,
            num_constraints=len(checker.constraints.subtypings),
            num_implications=len(checker.constraints.implications),
            num_obligations_checked=len(results),
            time_seconds=stage.timings.total,
            filename=cons.parse.filename,
            timings=stage.timings,
        )
        self._store_end(stage)
        return result, results

    def _store_abort(self, cons: ConstraintsStage) -> None:
        """Cancelled- or failed-check store teardown: detach the recording
        sink and drop the key so neither the solution nor the verdict memos
        of the aborted check can ever reach the persistent store."""
        if cons.store_recorded is not None:
            self.solver.stop_recording(cons.store_recorded)
        cons.store_recorded = None
        cons.store_key = None

    def _store_end(self, stage: SolveStage) -> None:
        """Persistent store, write side: detach the recording sink and write
        back anything short of a full hit (a full hit's artifacts are
        already on disk, byte-identical)."""
        cons = stage.constraints
        if cons.store_recorded is not None:
            self.solver.stop_recording(cons.store_recorded)
        if (cons.store_key is None or self.store is None
                or self.store.readonly):
            cons.store_recorded = None
            return
        if not cons.store_plan_used:
            self.store.save_solution(cons.store_key, stage.solution)
        recorded = cons.store_recorded or {}
        if recorded and not (cons.store_plan_used and cons.store_memos_hit):
            self.store.save_verdicts(cons.store_key, recorded.items())
        # Once written (or skipped), a second verify() of the same stage
        # must not write again.
        cons.store_key = None
        cons.store_recorded = None

    def _verify_selective(self, stage: SolveStage,
                          plan: WarmPlan) -> List[ObligationOutcome]:
        """Re-check only dirty partitions' concrete obligations; unchanged
        partitions keep their previous verdicts (identical formulas), carried
        onto the freshly generated implications so spans stay current."""
        checker = stage.constraints.checker
        reuse_cursor = {owner: iter(outcomes)
                        for owner, outcomes in plan.reuse_concrete.items()}
        results: List[ObligationOutcome] = []
        for imp in checker.constraints.implications:
            if LiquidSolver._goal_kappa(imp) is not None:
                continue
            cursor = reuse_cursor.get(imp.owner)
            if cursor is not None:
                prev = next(cursor)
                results.append(ObligationOutcome(imp, prev.ok, prev.goal))
            else:
                results.extend(
                    stage.liquid.check_concrete([imp], stage.solution))
        return results

    # -- helpers -----------------------------------------------------------

    def _new_pool(self) -> QualifierPool:
        if self.config.qualifier_set == "harvested":
            return QualifierPool(qualifiers=[])
        return QualifierPool()


def _check_chunk(config: CheckConfig, paths: List[str],
                 trace_id: Optional[str] = None) -> tuple:
    """Process-pool worker: check a chunk of files in a fresh workspace.

    With ``trace_id`` set the worker's spans are collected too (reset
    first — a forked worker inherits the parent's buffered events — then
    drained into the return value for the parent to merge)."""
    if trace_id is not None:
        worker_tracer = tracer()
        worker_tracer.reset()
        worker_tracer.enable(trace_id=trace_id)
    workspace = Workspace(config)
    results = [workspace._check_readable(pathlib.Path(p)) for p in paths]
    trace = tracer().drain() if trace_id is not None else None
    return results, workspace.solver.stats, workspace.checks_run, trace


def _partition_local(checker: Checker) -> bool:
    """True when no implication mentions a kappa outside its own partition
    (and every mentioned kappa is registered and owned) — the structural
    property that makes per-partition solution reuse sound."""
    owners = checker.kappas.owners_of()
    for imp in checker.constraints.implications:
        for term in (imp.goal, *imp.hyps):
            for occurrence in kappa_apps(term):
                owner = owners.get(occurrence.fn)
                if owner is None or owner != imp.owner:
                    return False
    return True


def _kappas_by_owner(checker: Checker) -> Dict[str, List[str]]:
    grouped: Dict[str, List[str]] = {}
    for name, info in checker.kappas.kappas.items():
        if info.owner is not None:
            grouped.setdefault(info.owner, []).append(name)
    return grouped


def _group_by_owner(items) -> Dict[str, List]:
    """Group implications/outcomes by their (non-None) owner, in order."""
    grouped: Dict[str, List] = {}
    for item in items:
        owner = item.owner if hasattr(item, "owner") else \
            item.implication.owner
        if owner is None:
            continue
        grouped.setdefault(owner, []).append(item)
    return grouped
