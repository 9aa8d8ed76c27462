"""The module graph: import resolution, cycles, deterministic topo ranks.

A :class:`ModuleGraph` is built from a project root (every ``*.rsc`` under
it, read by :func:`read_sources`) or a ``{path: source}`` mapping.  Each
module is parsed once, by the checker's own
:func:`~repro.core.workspace.parse_source` (so a module that does not parse
carries the same ``RSC-PARSE-001``/``RSC-INT-001`` diagnostic a file checked
on its own would); its ``import`` declarations are resolved against the
importing file's directory (with ``.rsc`` appended when the specifier has no
suffix).  The graph then yields:

* ``RSC-MOD-001`` diagnostics for imports whose target file does not exist,
* ``RSC-MOD-002`` diagnostics for every module on an import cycle (reported
  with a deterministic cycle rendering, smallest member first),
* :attr:`~ModuleGraph.ranks` — deterministic topological ranks over the
  acyclic modules: rank 0 modules import nothing (or only missing/cyclic
  modules), rank *r* modules import only ranks < *r*.  Modules sharing a
  rank are independent of each other.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.core.liquid.fixpoint import strongly_connected_components
from repro.core.workspace import parse_source
from repro.errors import Diagnostic, ErrorKind, SourceSpan
from repro.lang import ast
from repro.node import Record, field
from repro.project.summary import ModuleSummary, summarize_program

if TYPE_CHECKING:  # the store loads only with a store path
    from repro.store import ArtifactStore


def read_sources(root: Union[str, pathlib.Path],
                 pattern: str = "**/*.rsc") -> Dict[str, str]:
    """``{resolved path: source text}`` of every ``pattern`` match under
    ``root``, in path order.  Raises :class:`NotADirectoryError` when
    ``root`` is not a directory (a missing root is not an empty project)."""
    root = pathlib.Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {str(root)!r}")
    return {str(p.resolve()): p.read_text()
            for p in sorted(root.glob(pattern)) if p.is_file()}


def resolve_specifier(importer: pathlib.Path, specifier: str) -> str:
    """The path a module specifier denotes, relative to the importing file.

    ``.rsc`` is appended unless the specifier already carries it — a dotted
    stem (``"./v1.0-types"``) is a name, not an extension."""
    target = pathlib.Path(specifier)
    if target.suffix != ".rsc":
        target = target.with_name(target.name + ".rsc")
    if not target.is_absolute():
        target = importer.parent / target
    return str(target.resolve())


class ResolvedImport(Record):
    """One ``import`` statement with its specifier resolved to a path."""

    names: List[str]
    specifier: str
    target: str
    span: SourceSpan
    exists: bool = True


class Module(Record):
    """One project module: source, AST (if it parses), resolved imports.

    ``parses`` records the parse outcome independently of ``program`` —
    a module served from the persistent artifact store carries its summary,
    imports and diagnostics but *no* AST, and must still be distinguished
    from one that genuinely failed to parse."""

    path: str
    source: str
    program: Optional[ast.Program] = None
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)
    imports: List[ResolvedImport] = field(default_factory=list)
    summary: ModuleSummary = None  # type: ignore[assignment]
    #: module-level diagnostics (unresolved imports, cycles, unknown exports)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    parses: bool = False

    def __post_init__(self) -> None:
        # Direct constructions (tests, tools) pass a parsed program without
        # the flag; infer it so `parses` only ever needs explicit setting
        # for AST-less store-loaded modules.
        if self.program is not None:
            self.parses = True

    @property
    def dependencies(self) -> List[str]:
        """Paths of the existing modules this one imports, deduplicated."""
        seen: List[str] = []
        for imp in self.imports:
            if imp.exists and imp.target not in seen:
                seen.append(imp.target)
        return seen


class ModuleGraph:
    """All modules of a project plus the derived dependency structure."""

    def __init__(self, modules: Dict[str, Module]) -> None:
        self.modules = modules
        self.cyclic: List[str] = []
        self.ranks: Dict[str, int] = {}
        # Reverse adjacency, built once (the graph is immutable after
        # construction) so dependent walks do not rescan every module.
        self._dependents: Dict[str, List[str]] = {}
        for path in sorted(modules):
            for dep in modules[path].dependencies:
                self._dependents.setdefault(dep, []).append(path)
        self._analyze()

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_root(root: pathlib.Path, pattern: str = "**/*.rsc",
                  store: Optional[ArtifactStore] = None) -> "ModuleGraph":
        return ModuleGraph.from_sources(read_sources(root, pattern),
                                        store=store)

    @staticmethod
    def from_sources(sources: Dict[str, str],
                     cache: Optional[Dict[str, Module]] = None,
                     store: Optional[ArtifactStore] = None
                     ) -> "ModuleGraph":
        """Build from ``{resolved path: source text}``.

        ``cache`` (typically a previous graph's ``modules``) lets unchanged
        modules reuse their parsed AST, parse diagnostics and interface
        summary — the expensive, source-only work — so an incremental
        rebuild after a one-module edit re-parses exactly that module.
        Import resolution and the graph analyses are recomputed fresh
        (they depend on the module *set*, and the analyses append
        per-graph diagnostics).

        ``store`` is the cross-process analogue: modules not served by the
        in-memory cache look up their :class:`~repro.store.ModuleArtifact`
        (summary + raw imports + parse diagnostics, keyed by path and
        source text) before paying for a parse, and parsed modules write
        theirs back."""
        modules: Dict[str, Module] = {}
        known = set(sources)
        for path in sorted(sources):
            cached = cache.get(path) if cache else None
            if cached is not None and cached.source == sources[path]:
                module = Module(
                    path=path, source=cached.source, program=cached.program,
                    parse_diagnostics=list(cached.parse_diagnostics),
                    summary=cached.summary, parses=cached.parses)
                # Re-resolve from the cached imports' raw triples, not the
                # AST — a store-loaded module has no AST, and resolution
                # must be recomputed against the *new* module set anyway.
                _resolve_import_list(
                    module,
                    [(list(i.names), i.specifier, i.span)
                     for i in cached.imports], known)
                modules[path] = module
            else:
                modules[path] = _load(path, sources[path], known, store)
        return ModuleGraph(modules)

    # -- analysis ----------------------------------------------------------

    def _analyze(self) -> None:
        self._detect_cycles()
        self._assign_ranks()
        self._check_export_names()

    def _detect_cycles(self) -> None:
        """Mark every module on an import cycle: a strongly connected
        component of two or more modules, or one module importing
        itself."""
        edges = {path: {dep for dep in module.dependencies
                        if dep in self.modules}
                 for path, module in self.modules.items()}
        for scc in strongly_connected_components(edges):
            if len(scc) == 1 and scc[0] not in edges[scc[0]]:
                continue
            members = sorted(scc)
            rendered = " -> ".join(
                _display(m) for m in members + [members[0]])
            for member in members:
                self.cyclic.append(member)
                module = self.modules[member]
                module.diagnostics.append(Diagnostic(
                    ErrorKind.MODULE,
                    f"import cycle: {rendered}; the module is skipped",
                    _first_import_span(module),
                    code="RSC-MOD-002"))
        self.cyclic.sort()

    def _assign_ranks(self) -> None:
        """Longest-path-from-leaves ranks over the acyclic modules."""
        cyclic = set(self.cyclic)
        order = [path for path in sorted(self.modules) if path not in cyclic]
        resolved: Dict[str, int] = {}

        def rank_of(path: str) -> int:
            if path in resolved:
                return resolved[path]
            # The graph is acyclic here, so plain recursion terminates; an
            # explicit stack keeps deep chains from hitting the limit.
            stack = [path]
            while stack:
                current = stack[-1]
                deps = [d for d in self.modules[current].dependencies
                        if d in self.modules and d not in cyclic]
                pending = [d for d in deps if d not in resolved]
                if pending:
                    stack.extend(pending)
                    continue
                resolved[current] = (
                    1 + max(resolved[d] for d in deps)) if deps else 0
                stack.pop()
            return resolved[path]

        for path in order:
            self.ranks[path] = rank_of(path)

    def _check_export_names(self) -> None:
        """RSC-MOD-003 for imported names the target does not export."""
        for path in sorted(self.modules):
            module = self.modules[path]
            for imp in module.imports:
                if not imp.exists:
                    continue
                target = self.modules.get(imp.target)
                if target is None or target.summary is None:
                    continue
                if not target.parses:
                    continue  # unparsable dependency reports its own error
                for name in imp.names:
                    if not target.summary.has(name):
                        module.diagnostics.append(Diagnostic(
                            ErrorKind.MODULE,
                            f"module {imp.specifier!r} has no export "
                            f"{name!r} (exports: "
                            f"{', '.join(target.summary.names) or 'none'})",
                            imp.span, code="RSC-MOD-003"))

    # -- queries -----------------------------------------------------------

    @property
    def paths(self) -> List[str]:
        return sorted(self.modules)

    def dependents_of(self, path: str) -> List[str]:
        """Direct importers of ``path``, sorted."""
        return list(self._dependents.get(path, []))

    def transitive_dependents(self, path: str) -> List[str]:
        """Every module reaching ``path`` through imports, topo-sorted
        (dependencies before dependents, ties by path)."""
        found: set = set()
        frontier = [path]
        while frontier:
            current = frontier.pop()
            for dependent in self.dependents_of(current):
                if dependent not in found and dependent != path:
                    found.add(dependent)
                    frontier.append(dependent)
        return sorted(found, key=lambda p: (self.ranks.get(p, 0), p))

    def batches(self) -> List[List[str]]:
        """Acyclic modules grouped by rank — each batch's members are
        mutually independent and depend only on earlier batches."""
        by_rank: Dict[int, List[str]] = {}
        for path, rank in self.ranks.items():
            by_rank.setdefault(rank, []).append(path)
        return [sorted(by_rank[rank]) for rank in sorted(by_rank)]

    def interface_prelude(self, path: str) -> str:
        """The rendered interface prelude for ``path``'s imports.

        Walks the import closure depth-first (a dependency's own imported
        interfaces come before the declarations that may mention them) and
        deduplicates by rendered text, so diamond imports do not redeclare.
        """
        decls: List[str] = []
        seen: set = set()
        self._gather_prelude(path, decls, seen, {path})
        if not decls:
            return ""
        return "\n\n".join(["// --- imported module interfaces ---"] + decls)

    def _gather_prelude(self, path: str, decls: List[str], seen: set,
                        done: set) -> None:
        """Gather ``path``'s imported interface decls into ``decls``.

        ``done`` memoizes modules whose import list was already walked —
        it both breaks cycles and keeps diamond-shaped closures linear
        (re-walking would be exponential in chain depth).  The per-import
        decl append below stays outside the memo: a module imported twice
        with different name lists contributes both lists.
        """
        module = self.modules.get(path)
        if module is None:
            return
        for imp in module.imports:
            if not imp.exists:
                continue
            target = self.modules.get(imp.target)
            if target is None or target.summary is None:
                continue
            if imp.target not in done:
                done.add(imp.target)
                self._gather_prelude(imp.target, decls, seen, done)
            for rendered in target.summary.interface_decls():
                if rendered not in seen:
                    seen.add(rendered)
                    decls.append(rendered)

    def document_text(self, path: str) -> str:
        """The text actually checked for ``path``: its source plus the
        interface prelude of everything it imports.  The prelude is appended
        *after* the module text so diagnostic line numbers in the module
        itself are unchanged (declaration order is irrelevant to the
        checker's two-phase table construction)."""
        module = self.modules[path]
        prelude = self.interface_prelude(path)
        if not prelude:
            return module.source
        body = module.source
        if body and not body.endswith("\n"):
            body += "\n"
        return f"{body}\n{prelude}\n"


def _load(path: str, source: str, known: set,
          store: Optional[ArtifactStore] = None) -> Module:
    if store is not None:
        artifact = store.load_module(path, source)
        if artifact is not None:
            module = Module(
                path=path, source=source, program=None,
                parse_diagnostics=list(artifact.parse_diagnostics),
                summary=artifact.summary)
            module.parses = artifact.parses
            _resolve_import_list(module, artifact.imports, known)
            return module
    program, parse_diagnostics = parse_source(source, path)
    module = Module(path=path, source=source, program=program,
                    parse_diagnostics=parse_diagnostics)
    module.summary = summarize_program(path, module.program)
    raw_imports = _raw_imports(module)
    _resolve_import_list(module, raw_imports, known)
    if store is not None:
        from repro.store import ModuleArtifact
        store.save_module(path, source, ModuleArtifact(
            parses=module.parses, summary=module.summary,
            imports=raw_imports,
            parse_diagnostics=list(module.parse_diagnostics)))
    return module


def _raw_imports(module: Module):
    """The unresolved ``(names, specifier, span)`` triples of a parsed
    module — the shape module artifacts persist (resolution depends on the
    surrounding module set, so it is recomputed per graph)."""
    if module.program is None:
        return []
    return [(list(decl.names), decl.module, decl.span)
            for decl in module.program.imports()]


def _resolve_import_list(module: Module, raw_imports, known: set) -> None:
    importer = pathlib.Path(module.path)
    for names, specifier, span in raw_imports:
        target = resolve_specifier(importer, specifier)
        exists = target in known
        module.imports.append(ResolvedImport(
            names=list(names), specifier=specifier,
            target=target, span=span, exists=exists))
        if not exists:
            module.diagnostics.append(Diagnostic(
                ErrorKind.MODULE,
                f"cannot resolve import {specifier!r} "
                f"(no module at {_display(target)})",
                span, code="RSC-MOD-001"))


def _display(path: str) -> str:
    """A short, stable rendering of a module path for messages."""
    p = pathlib.Path(path)
    return p.name if p.name else path


def _first_import_span(module: Module) -> SourceSpan:
    for imp in module.imports:
        return imp.span
    return SourceSpan(filename=module.path)
