"""The persistent content-addressed artifact store.

Everything PRs 3–5 taught the checker to reuse *within* a process —
interface summaries, solved kappa fixpoints, SMT verdict memos — lives here
*across* processes, on disk, keyed by content hashes so entries can never
go stale (an edit changes the hash; a config change changes the config
fingerprint folded into the key).

The stack, bottom to top:

* :mod:`repro.store.backend` — the byte-oriented :class:`StoreBackend`
  protocol plus a name registry (mirroring the SMT backend registry);
* :mod:`repro.store.local` — the shipped filesystem backend: sharded
  directories, atomic tmp-file + rename writes, mtime-ordered GC;
* :mod:`repro.store.codec` — versioned, exact (de)serialisation of
  formulas, solutions and module artifacts; anything malformed decodes as
  a miss;
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`, the typed facade
  the workspace and module graph talk to, plus the keying scheme;
* :mod:`repro.store.server` / :mod:`repro.store.protocol` — the asyncio
  TCP cache server (``repro cache serve --tcp``) and the typed
  ``repro-store/1`` protocol it speaks;
* :mod:`repro.store.remote` — the ``remote://host:port`` backend: pooled
  sockets, bounded retries with jittered backoff, and a circuit breaker
  that fails open (every network failure degrades to a sound cache miss);
* :mod:`repro.store.tiered` — ``tiered://LOCAL_PATH?remote=host:port``,
  read-through/write-through local disk over the shared server.

Select a store with ``CheckConfig(store_path=...)`` (CLI ``--store`` /
``REPRO_STORE``); manage it with ``repro cache stats|gc|clear``.  A
store-warm re-check of unchanged sources replays the persisted solution
and memos and issues **zero** SMT queries and SAT searches.
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
    resolve_store_backend,
)
from repro.store.backend import (
    GcResult,
    StoreBackend,
    StoreStats,
    available_store_backends,
    create_store_backend,
    register_store_backend,
)
from repro.store.codec import STORE_SCHEMA, CodecError, ModuleArtifact
from repro.store.local import LocalStoreBackend
from repro.store.protocol import STORE_PROTOCOL
from repro.store.remote import RemoteStoreBackend, StoreUnavailableError
from repro.store.server import FaultPlan, StoreServer
from repro.store.tiered import TieredStoreBackend

register_store_backend("local", LocalStoreBackend)
register_store_backend("remote", RemoteStoreBackend)
register_store_backend("tiered", TieredStoreBackend)

__all__ = [
    "ArtifactStore",
    "CodecError",
    "DEFAULT_MAX_BYTES",
    "FaultPlan",
    "GcResult",
    "KINDS",
    "LocalStoreBackend",
    "MODULES",
    "ModuleArtifact",
    "RemoteStoreBackend",
    "SOLUTIONS",
    "STORE_PROTOCOL",
    "STORE_SCHEMA",
    "StoreBackend",
    "StoreServer",
    "StoreStats",
    "StoreUnavailableError",
    "TieredStoreBackend",
    "VERDICTS",
    "available_store_backends",
    "config_fingerprint",
    "create_store_backend",
    "default_store_path",
    "open_store",
    "register_store_backend",
    "resolve_store_backend",
]
