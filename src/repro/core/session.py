"""The session-based checking pipeline — a one-shot facade over the
incremental :class:`repro.core.workspace.Workspace`.

A :class:`Session` owns one long-lived :class:`repro.smt.Solver` (via its
workspace) whose query/result cache is reused across every program checked
through it, so batch runs (benchmark suites, generate-and-check loops)
amortise repeated verification conditions instead of rebuilding a solver
per file.  Unlike a workspace, a session keeps no per-document state:
every ``check_*`` call is an independent cold check — use a
:class:`~repro.core.workspace.Workspace` when the same document is
re-checked across edits.

The pipeline is explicit and inspectable.  Each stage returns an artifact
object that the next stage consumes, and wall-clock time is recorded per
stage in a :class:`repro.core.result.StageTimings`::

    session = Session(CheckConfig(max_fixpoint_iterations=60))
    parsed  = session.parse(source, "a.rsc")   # -> ParseStage (AST)
    ssa     = session.ssa(parsed)              # -> SsaStage   (IRSC bodies)
    cons    = session.constraints(ssa)         # -> ConstraintsStage
    solved  = session.solve(cons)              # -> SolveStage (kappa solution)
    result  = session.verify(solved)           # -> CheckResult

For the common cases the batch entry points drive all five stages::

    result = session.check_source(source)          # one string
    result = session.check_file("a.rsc")           # one file
    batch  = session.check_files(paths, jobs=4)    # many files
    project = session.check_project("my-project")  # a module graph
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import Diagnostic, ErrorKind, SourceSpan
from repro.lang import ast
from repro.smt.solver import Solver, SolverStats
from repro.core.cancel import CancelToken, checkpoint
from repro.core.config import CheckConfig
from repro.obs.trace import tracer
from repro.core.result import BatchResult, CheckResult, StageTimings
from repro.core.workspace import (  # noqa: F401  (re-exported stage types)
    ConstraintsStage,
    ParseStage,
    SolveStage,
    SsaStage,
    Workspace,
    nesting_too_deep,
)

PathLike = Union[str, pathlib.Path]


def _check_chunk(config: CheckConfig, paths: List[str],
                 trace_id: Optional[str] = None) -> tuple:
    """Process-pool worker: check a chunk of files in a fresh session.

    With ``trace_id`` set the worker's spans are collected too (reset
    first — a forked worker inherits the parent's buffered events — then
    drained into the return value for the parent to merge)."""
    if trace_id is not None:
        worker_tracer = tracer()
        worker_tracer.reset()
        worker_tracer.enable(trace_id=trace_id)
    session = Session(config)
    results = [Session._checked(pathlib.Path(p), session) for p in paths]
    trace = tracer().drain() if trace_id is not None else None
    return results, session.solver.stats, session.files_checked, trace


class Session:
    """A reusable checking pipeline sharing one solver across programs."""

    def __init__(self, config: Optional[CheckConfig] = None,
                 solver: Optional[Solver] = None) -> None:
        self.config = config or CheckConfig()
        self.workspace = Workspace(self.config, solver=solver)
        self.files_checked = 0

    @property
    def solver(self) -> Solver:
        return self.workspace.solver

    @property
    def store(self):
        """The persistent artifact store (``None`` unless configured)."""
        return self.workspace.store

    # -- staged pipeline (delegated to the workspace) ----------------------

    def parse(self, source: str, filename: str = "<input>") -> ParseStage:
        """Stage 1: lex and parse ``source`` into an AST."""
        return self.workspace.parse(source, filename)

    def ssa(self, parsed: ParseStage) -> SsaStage:
        """Stage 2: SSA-convert every callable body (inspectable IRSC)."""
        return self.workspace.ssa(parsed)

    def constraints(self, stage: Union[ParseStage, SsaStage]) -> ConstraintsStage:
        """Stage 3: generate and flatten the subtyping constraints."""
        return self.workspace.constraints(stage)

    def solve(self, stage: ConstraintsStage,
              token: Optional[CancelToken] = None) -> SolveStage:
        """Stage 4: liquid fixpoint — infer the kappa refinements."""
        return self.workspace.solve(stage, token=token)

    def verify(self, stage: SolveStage,
               token: Optional[CancelToken] = None) -> CheckResult:
        """Stage 5: discharge the concrete obligations, build the verdict."""
        result = self.workspace.verify(stage, token=token)
        self.files_checked += 1
        return result

    # -- batch entry points ------------------------------------------------

    def check_source(self, source: str, filename: str = "<input>",
                     token: Optional[CancelToken] = None) -> CheckResult:
        """Run the full pipeline on one nanoTS source string.

        The inspectable :meth:`ssa` stage is skipped here — the checker
        re-derives SSA per callable while generating constraints, so running
        it eagerly would only duplicate work (its timing stays 0 unless the
        staged pipeline is driven explicitly).

        A ``token`` makes the check cancellable at stage boundaries (and
        inside the solve/verify loops); a fired token raises
        :class:`repro.core.cancel.CheckCancelled`.
        """
        checkpoint(token)
        parsed = self.parse(source, filename)
        if not parsed.ok:
            self.files_checked += 1
            return CheckResult(diagnostics=list(parsed.diagnostics),
                               time_seconds=parsed.timings.total,
                               filename=filename, timings=parsed.timings)
        checkpoint(token)
        return self._check_parsed(parsed, token)

    def check_program(self, program: ast.Program) -> CheckResult:
        """Run the pipeline from stage 3 on an already-parsed program."""
        parsed = ParseStage(source="", filename=program.source_name,
                            program=program, diagnostics=[],
                            timings=StageTimings())
        return self._check_parsed(parsed)

    def _check_parsed(self, parsed: ParseStage,
                      token: Optional[CancelToken] = None) -> CheckResult:
        """Stages 3-5; input nested too deeply for the checker is an
        RSC-INT-001 verdict, not a crash."""
        try:
            cons = self.constraints(parsed)
            try:
                return self.verify(self.solve(cons, token), token)
            except BaseException:
                # Leave no trace: the store recording sink attached by the
                # constraints stage must not survive a cancelled or failed
                # check.
                self.workspace._store_abort(cons)
                raise
        except RecursionError:
            self.files_checked += 1
            return CheckResult(
                diagnostics=[nesting_too_deep(parsed.filename)],
                time_seconds=parsed.timings.total,
                filename=parsed.filename, timings=parsed.timings)

    def check_file(self, path: PathLike,
                   token: Optional[CancelToken] = None) -> CheckResult:
        """Check one file.  Raises :class:`OSError` if it cannot be read."""
        path = pathlib.Path(path)
        return self.check_source(path.read_text(), filename=str(path),
                                 token=token)

    def check_files(self, paths: Sequence[PathLike],
                    jobs: Optional[int] = None) -> BatchResult:
        """Check many files, aggregating diagnostics and solver statistics.

        With ``jobs > 1`` the paths are partitioned over worker sessions,
        each with its own solver (cache amortisation is then per worker);
        with the default single job every file shares this session's solver
        and its cache.
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
            results = [self._checked(p, self) for p in paths]
            stats = self.solver.stats.delta_since(base)
        return BatchResult(results=results, stats=stats,
                           time_seconds=time.perf_counter() - start)

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
            self.files_checked += checked
            if trace is not None:
                parent_tracer.ingest(trace["events"],
                                     trace["slow_queries"])
            for result in results:
                by_path[result.filename] = result
        return [by_path[str(p)] for p in paths], stats

    def check_project(self, root: PathLike,
                      pattern: str = "**/*.rsc") -> "ProjectResult":
        """Check the *module graph* rooted at ``root``.

        Every ``pattern`` match becomes a module; ``import``/``export``
        declarations link them and each module is checked against its
        dependencies' interface summaries in dependency order.  This is a
        cold :meth:`repro.project.ProjectWorkspace.check` under this
        session's config — the project's workspace, not this session's
        solver, checks the modules.  Raises :class:`NotADirectoryError`
        when ``root`` is not a directory.
        """
        from repro.project.workspace import ProjectWorkspace
        result = ProjectWorkspace(root=root, config=self.config,
                                  pattern=pattern).check()
        self.files_checked += result.num_modules
        return result

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _checked(path: pathlib.Path, session: "Session") -> CheckResult:
        try:
            return session.check_file(path)
        except OSError as exc:
            diag = Diagnostic(ErrorKind.INTERNAL, f"cannot read: {exc}",
                              SourceSpan(filename=str(path)),
                              code="RSC-INT-001")
            return CheckResult(diagnostics=[diag], filename=str(path))

    @property
    def cache_size(self) -> int:
        return self.solver.cache_size

    def reset_cache(self) -> None:
        """Drop the solver's query cache (statistics are kept)."""
        self.solver.clear_cache()
