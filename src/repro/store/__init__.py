"""The persistent content-addressed artifact store.

Everything PRs 3–5 taught the checker to reuse *within* a process —
interface summaries, solved kappa fixpoints, SMT verdict memos — lives here
*across* processes, on disk, keyed by content hashes so entries can never
go stale (an edit changes the hash; a config change changes the config
fingerprint folded into the key).

The stack, bottom to top:

* :mod:`repro.store.backend` — the byte-oriented :class:`StoreBackend`
  protocol and the stats/GC records it reports;
* :mod:`repro.store.local` — the filesystem backend: sharded directories,
  atomic tmp-file + rename writes, mtime-ordered GC;
* :mod:`repro.store.codec` — versioned, exact (de)serialisation of
  formulas, solutions and module artifacts; anything malformed decodes as
  a miss;
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, the typed facade
  the workspace and module graph talk to, plus the keying scheme.

Select a store directory with ``CheckConfig(store_path=...)`` (CLI
``--store`` / ``REPRO_STORE``); manage it with ``repro cache
stats|gc|clear``.  A store-warm re-check of unchanged sources replays the
persisted solution and memos and issues **zero** SMT queries and SAT
searches.
"""

from repro.store.artifacts import (
    ArtifactStore,
    DEFAULT_MAX_BYTES,
    KINDS,
    MODULES,
    SOLUTIONS,
    VERDICTS,
    config_fingerprint,
    default_store_path,
    open_store,
)
from repro.store.backend import GcResult, StoreBackend, StoreStats
from repro.store.codec import STORE_SCHEMA, CodecError, ModuleArtifact
from repro.store.local import LocalStoreBackend

__all__ = [
    "ArtifactStore",
    "CodecError",
    "DEFAULT_MAX_BYTES",
    "GcResult",
    "KINDS",
    "LocalStoreBackend",
    "MODULES",
    "ModuleArtifact",
    "SOLUTIONS",
    "STORE_SCHEMA",
    "StoreBackend",
    "StoreStats",
    "VERDICTS",
    "config_fingerprint",
    "default_store_path",
    "open_store",
]
