"""The artifact layer: content-addressed keys over a byte-oriented backend.

An :class:`ArtifactStore` persists three artifact kinds across processes:

* ``"modules"`` — a module's parse outcome (interface summary, raw imports,
  parse diagnostics), keyed by the module's *path and source text* alone —
  parsing is config-independent, so a solver-option change never
  invalidates summaries;
* ``"solutions"`` — the solved kappa assignment of one checked document;
* ``"verdicts"`` — the SMT verdict memos issued while checking it.

Solutions and verdicts are keyed by the document's content hash *combined
with* :func:`config_fingerprint` — a digest of exactly the options that can
change constraint generation, fixpoint behaviour or solver verdicts
(qualifier set, fixpoint budget, theory budget), so a stale config can
never alias a current one.  Deliberately *excluded*: cache sizing
(capacity, not meaning) and output, service and tracing options (they never
touch the pipeline).  ``tests/test_store.py`` holds every
:class:`CheckConfig` field to one side of that line.

Every load that fails to decode counts as a miss and the artifact is
recomputed — the store can serve wrong-version, truncated or corrupted
bytes and the worst case is a cold check.  Every save that fails to
encode is dropped, like a backend write error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.logic.terms import Expr
from repro.obs.trace import span as trace_span
from repro.smt.solver import Result
from repro.store import codec
from repro.store.backend import GcResult, StoreBackend, StoreStats
from repro.store.codec import STORE_SCHEMA, CodecError, ModuleArtifact
from repro.store.local import LocalStoreBackend

#: Artifact kind names (the first path component under the store root).
MODULES = "modules"
SOLUTIONS = "solutions"
VERDICTS = "verdicts"
KINDS = (MODULES, SOLUTIONS, VERDICTS)

#: Default size bound enforced by ``repro cache gc`` (bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_store_path() -> str:
    """The XDG-style default store location (``repro cache`` fallback)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return str(base / "repro" / "store")


def config_fingerprint(config) -> str:
    """Digest of the verdict-affecting slice of a :class:`CheckConfig`."""
    payload = {
        "schema": STORE_SCHEMA,
        "qualifier_set": config.qualifier_set,
        "max_fixpoint_iterations": config.max_fixpoint_iterations,
        "max_theory_iterations": config.solver.max_theory_iterations,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Typed load/save of checking artifacts over one :class:`StoreBackend`.

    ``readonly`` stores serve hits but silently drop every save — the
    ``store_mode="readonly"`` contract (e.g. CI workers sharing a
    pre-populated cache they must not grow).
    """

    def __init__(self, backend: StoreBackend, readonly: bool = False) -> None:
        self.backend = backend
        self.readonly = readonly
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- keys --------------------------------------------------------------

    @staticmethod
    def document_key(content_hash: str, config_fp: str) -> str:
        """Key of a checked document's solution/verdict artifacts."""
        return hashlib.sha256(
            f"{content_hash}:{config_fp}".encode("utf-8")).hexdigest()

    @staticmethod
    def module_key(path: str, source: str) -> str:
        """Key of a module artifact (path is baked into the summary)."""
        digest = hashlib.sha256()
        digest.update(path.encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    # -- typed artifact access ---------------------------------------------

    def load_verdicts(self, key: str) -> Optional[List[Tuple[Expr, Result]]]:
        return self._load(VERDICTS, key)

    def save_verdicts(self, key: str,
                      pairs: Iterable[Tuple[Expr, Result]]) -> None:
        self._save(VERDICTS, key, list(pairs))

    def load_solution(self, key: str) -> Optional[Dict[str, List[Expr]]]:
        return self._load(SOLUTIONS, key)

    def save_solution(self, key: str,
                      solution: Dict[str, List[Expr]]) -> None:
        self._save(SOLUTIONS, key, solution)

    def load_module(self, path: str, source: str) -> Optional[ModuleArtifact]:
        return self._load(MODULES, self.module_key(path, source))

    def save_module(self, path: str, source: str,
                    artifact: ModuleArtifact) -> None:
        self._save(MODULES, self.module_key(path, source), artifact)

    # -- maintenance -------------------------------------------------------

    def stats(self) -> StoreStats:
        return self.backend.stats()

    def gc(self, max_bytes: int = DEFAULT_MAX_BYTES) -> GcResult:
        return self.backend.gc(max_bytes)

    def clear(self) -> int:
        return self.backend.clear()

    def counters(self) -> dict:
        """This process's store traffic (reported over the serve protocol)."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}

    # -- plumbing ----------------------------------------------------------

    def _load(self, kind: str, key: str):
        with trace_span("store.get", "store", kind=kind) as sp:
            payload = self.backend.get(kind, key)
            if payload is None:
                self.misses += 1
                sp.note(hit=False)
                return None
            try:
                data = codec.decode_entry(kind, payload)
            except CodecError:
                self.misses += 1
                sp.note(hit=False, decode_error=True)
                return None
            self.hits += 1
            sp.note(hit=True)
            return data

    def _save(self, kind: str, key: str, data) -> None:
        if self.readonly:
            return
        with trace_span("store.put", "store", kind=kind) as sp:
            try:
                payload = codec.encode_entry(kind, data)
            except (CodecError, RecursionError):
                # A write the codec cannot express is a dropped write, the
                # same as a backend write error: the check goes on.
                sp.note(written=False, encode_error=True)
                return
            written = self.backend.put(kind, key, payload)
            sp.note(written=written)
        if written:
            self.writes += 1


def open_store(config) -> Optional[ArtifactStore]:
    """The store a :class:`CheckConfig` selects, or ``None`` for no store."""
    if config.store_path is None or config.store_mode == "off":
        return None
    return ArtifactStore(LocalStoreBackend(config.store_path),
                         readonly=config.store_mode == "readonly")


# Re-exported for callers that build ModuleArtifacts (the module graph).
__all__ = [
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "KINDS",
    "MODULES",
    "ModuleArtifact",
    "SOLUTIONS",
    "VERDICTS",
    "config_fingerprint",
    "default_store_path",
    "open_store",
]
