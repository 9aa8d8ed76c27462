"""The project workspace: build a module graph, edit one module, re-check
the cut.

A :class:`ProjectWorkspace` is the one engine behind every project check —
:func:`check_project` and :meth:`repro.core.workspace.Workspace.check_project`
are its cold :meth:`~ProjectWorkspace.check`.  It composes the module graph
with the per-document incremental :class:`repro.core.workspace.Workspace`:

* :meth:`~ProjectWorkspace.check` checks every acyclic module's *document*
  in dependency order; a module on an import cycle is not checked and
  carries the graph's stable ``RSC-MOD-002`` diagnostic instead;
* every module's *document* (its source plus the interface prelude of its
  imports) is held open in one shared workspace, so re-checks inside a
  module warm-start the liquid fixpoint exactly as single-file editing does;
* :meth:`update` re-parses the edited module and compares its
  :class:`~repro.project.summary.ModuleSummary` fingerprint with the
  previous one — a **body-only edit** leaves the interface untouched, so
  exactly one module is re-checked and the edit stops at the module
  boundary; a **signature edit** re-checks the module plus its transitive
  dependents, in dependency order (each dependent sees a changed interface
  prelude, which the inner workspace's signature fingerprint correctly
  treats as a cold-solve cause, while *unchanged* dependents' documents hit
  the content-hash artifact cache).

The test-suite asserts that after any edit sequence, every module's
diagnostics are identical to a from-scratch cold build that checks each
module document in a fresh :class:`~repro.core.workspace.Workspace`.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List, Optional, Union

from repro.core.cancel import CancelToken, checkpoint
from repro.core.config import CheckConfig
from repro.core.result import CheckResult
from repro.core.workspace import Workspace
from repro.node import Record, field, replace
from repro.project.graph import ModuleGraph, read_sources
from repro.project.result import ProjectResult
from repro.smt.solver import SolverStats

PathLike = Union[str, pathlib.Path]


class ProjectUpdate(Record):
    """What one :meth:`ProjectWorkspace.update` actually did."""

    path: str
    #: modules re-checked by this update, in check order
    rechecked: List[str] = field(default_factory=list)
    #: modules whose artifacts were reused untouched
    reused: List[str] = field(default_factory=list)
    #: did the edited module's interface fingerprint move?
    summary_changed: bool = False
    results: Dict[str, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    @property
    def queries(self) -> int:
        return sum(r.stats.queries for r in self.results.values()
                   if r.stats is not None)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "rechecked": list(self.rechecked),
            "reused": list(self.reused),
            "summary_changed": self.summary_changed,
            "ok": self.ok,
            "queries": self.queries,
        }


class ProjectWorkspace:
    """Long-lived module graph over one shared incremental workspace."""

    def __init__(self, root: Optional[PathLike] = None,
                 config: Optional[CheckConfig] = None,
                 pattern: str = "**/*.rsc",
                 sources: Optional[Dict[str, str]] = None,
                 workspace: Optional[Workspace] = None) -> None:
        """Modules are checked in ``workspace`` (its solver and store) when
        one is given, else in a new :class:`Workspace` under ``config``.
        Raises :class:`NotADirectoryError` when ``root`` is not a
        directory."""
        if (root is None) == (sources is None):
            raise ValueError("pass exactly one of root= or sources=")
        if config is not None and workspace is not None:
            raise ValueError("pass at most one of config= or workspace=")
        if sources is not None:
            self._sources = {str(pathlib.Path(p).resolve()): text
                             for p, text in sources.items()}
        else:
            self._sources = read_sources(root, pattern)
        self.workspace = workspace or Workspace(config or CheckConfig())
        self.config = self.workspace.config
        # The workspace's store (if the config selects one) also serves
        # the module graph's interface summaries, so its hit/miss counters
        # see the whole project's store traffic.
        self.graph = ModuleGraph.from_sources(dict(self._sources),
                                              store=self.workspace.store)
        self._results: Dict[str, CheckResult] = {}
        self._checked = False

    # -- full build --------------------------------------------------------

    def check(self) -> ProjectResult:
        """The initial (cold) build of every module, in dependency order."""
        start = time.perf_counter()
        for path in self.graph.cyclic:
            self._results[path] = skipped_result(self.graph, path)
        for batch in self.graph.batches():
            for path in batch:
                self._check_one(path)
        self._checked = True
        result = self.project_result()
        result.time_seconds = time.perf_counter() - start
        return result

    # -- incremental editing -----------------------------------------------

    def update(self, path: PathLike,
               text: Optional[str] = None,
               token: Optional[CancelToken] = None) -> ProjectUpdate:
        """Replace one module's source and re-check what it invalidated.

        ``text=None`` re-reads the module from disk.  Unknown paths are
        added to the project as new modules.  A ``token`` makes the update
        cancellable: it is polled between module re-checks (and inside each
        module's pipeline), and a fired token raises
        :class:`repro.core.cancel.CheckCancelled` — modules already
        re-checked keep their fresh verdicts, the rest keep their previous
        ones.
        """
        if not self._checked:
            self.check()
        resolved = str(pathlib.Path(path).resolve())
        if text is None:
            text = pathlib.Path(resolved).read_text()
        previous = self.graph.modules.get(resolved)
        previous_fp = previous.summary.fingerprint if previous else None
        previously_cyclic = set(self.graph.cyclic)

        self._sources[resolved] = text
        # Unchanged modules reuse their parsed AST and summary from the
        # previous graph — a one-module edit re-parses one module.
        self.graph = ModuleGraph.from_sources(dict(self._sources),
                                              cache=self.graph.modules,
                                              store=self.workspace.store)
        module = self.graph.modules[resolved]
        summary_changed = module.summary.fingerprint != previous_fp

        dirty = {resolved}
        if summary_changed:
            dirty.update(self.graph.transitive_dependents(resolved))
        # An edit can create, break or *reshape* import cycles; every module
        # that is (or was) on one gets a fresh verdict — a module staying
        # cyclic must still re-render its diagnostic when the cycle's
        # composition changed.  Refreshing a skipped verdict is cheap.
        dirty.update(previously_cyclic | set(self.graph.cyclic))

        update = ProjectUpdate(path=resolved, summary_changed=summary_changed)
        cyclic = set(self.graph.cyclic)
        for target in sorted(dirty,
                             key=lambda p: (self.graph.ranks.get(p, 0), p)):
            checkpoint(token)
            if target in cyclic:
                self._results[target] = skipped_result(self.graph, target)
            else:
                self._check_one(target, token)
            update.rechecked.append(target)
            update.results[target] = self._results[target]
        update.reused = [p for p in self.graph.paths if p not in dirty]
        return update

    # -- queries -----------------------------------------------------------

    def diagnostics(self, path: PathLike) -> List:
        resolved = str(pathlib.Path(path).resolve())
        return list(self._results[resolved].diagnostics)

    def result(self, path: PathLike) -> CheckResult:
        return self._results[str(pathlib.Path(path).resolve())]

    def modules(self) -> List[str]:
        return self.graph.paths

    def project_result(self) -> ProjectResult:
        """The current per-module verdicts assembled as a ProjectResult."""
        return assemble_result(self.graph, self._results)

    # -- helpers -----------------------------------------------------------

    def _check_one(self, path: str,
                   token: Optional[CancelToken] = None) -> None:
        text = self.graph.document_text(path)
        result = self.workspace.open(path, text, token=token)
        self._results[path] = attach_module_diagnostics(
            self.graph, path, result)


def check_project(root: PathLike, config: Optional[CheckConfig] = None,
                  pattern: str = "**/*.rsc") -> ProjectResult:
    """Check the project rooted at ``root`` (every ``pattern`` match) cold.

    With ``config.store_path`` set, the module graph loads interface
    summaries from the persistent store and every module replays persisted
    solutions and verdict memos — an unchanged project re-checks with zero
    SMT queries."""
    return ProjectWorkspace(root=root, config=config, pattern=pattern).check()


def attach_module_diagnostics(graph: ModuleGraph, path: str,
                              result: CheckResult) -> CheckResult:
    """Prepend the graph-level diagnostics (RSC-MOD-*) to a module verdict.

    Returns a shallow copy — ``result`` may be a cached workspace snapshot
    that must stay pristine for later reuse."""
    extra = list(graph.modules[path].diagnostics)
    if not extra:
        return result
    return replace(
        result, diagnostics=extra + list(result.diagnostics))


def skipped_result(graph: ModuleGraph, path: str) -> CheckResult:
    """The verdict of a module that was not checked (import cycle)."""
    module = graph.modules[path]
    return CheckResult(
        diagnostics=list(module.parse_diagnostics) + list(module.diagnostics),
        filename=path)


def assemble_result(graph: ModuleGraph,
                    by_path: Dict[str, CheckResult]) -> ProjectResult:
    """Order per-module verdicts by path and merge their solver stats."""
    stats = SolverStats()
    ordered: List[CheckResult] = []
    for path in graph.paths:
        result = by_path[path]
        ordered.append(result)
        if result.stats is not None:
            stats.merge(result.stats)
    return ProjectResult(results=ordered, ranks=dict(graph.ranks),
                         cyclic=list(graph.cyclic), stats=stats)
