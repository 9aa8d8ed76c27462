"""The pluggable artifact-store seam.

The checking pipeline only ever talks to the store through the narrow
byte-oriented surface below, captured as a runtime-checkable protocol, and
backends are registered by name in a process-wide registry keyed by the
``store_path`` scheme.  Three are registered (:mod:`repro.store`):

* a plain path (or ``local://PATH``) —
  :class:`repro.store.local.LocalStoreBackend`, sharded files on disk;
* ``remote://host:port`` — :class:`repro.store.remote.RemoteStoreBackend`,
  a client of a cache server (``repro cache serve --tcp``);
* ``tiered://PATH?remote=host:port`` —
  :class:`repro.store.tiered.TieredStoreBackend`, a local store in front of
  a cache server.

Backends deal in opaque payload bytes — encoding, keying and corruption
handling live above them in :class:`repro.store.ArtifactStore` — and their
``get``/``put`` must be safe under concurrent writers (the local backend
uses atomic tmp-file + rename; a networked one gets this for free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, runtime_checkable


@dataclass(frozen=True)
class KindStats:
    """Entry count and byte total for one artifact kind."""

    entries: int = 0
    bytes: int = 0


@dataclass
class StoreStats:
    """Per-kind usage of a store, as reported by ``repro cache stats``.

    Networked backends additionally report their degradation counters
    (remote errors, retries, circuit-breaker trips, ...) in ``remote``;
    purely local stores leave it ``None`` and it stays out of the JSON.
    """

    kinds: Dict[str, KindStats] = field(default_factory=dict)
    remote: Optional[dict] = None

    @property
    def total_entries(self) -> int:
        return sum(k.entries for k in self.kinds.values())

    @property
    def total_bytes(self) -> int:
        return sum(k.bytes for k in self.kinds.values())

    def to_dict(self) -> dict:
        obj = {
            "kinds": {name: {"entries": k.entries, "bytes": k.bytes}
                      for name, k in sorted(self.kinds.items())},
            "total_entries": self.total_entries,
            "total_bytes": self.total_bytes,
        }
        if self.remote is not None:
            obj["remote"] = self.remote
        return obj


@dataclass
class GcResult:
    """What one garbage collection pass removed and kept."""

    evicted_entries: int = 0
    evicted_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "kept_entries": self.kept_entries,
            "kept_bytes": self.kept_bytes,
        }


@runtime_checkable
class StoreBackend(Protocol):
    """What the artifact layer requires of a persistence substrate."""

    def get(self, kind: str, key: str) -> Optional[bytes]:
        """The payload stored under ``(kind, key)``, or ``None``."""
        ...

    def put(self, kind: str, key: str, payload: bytes) -> bool:
        """Store ``payload`` under ``(kind, key)``; False if it could not."""
        ...

    def stats(self) -> StoreStats:
        ...

    def gc(self, max_bytes: int) -> GcResult:
        """Evict oldest entries until at most ``max_bytes`` remain."""
        ...

    def clear(self) -> int:
        """Drop every entry, returning how many were removed."""
        ...


StoreBackendFactory = Callable[..., StoreBackend]

_REGISTRY: Dict[str, StoreBackendFactory] = {}


def register_store_backend(name: str, factory: StoreBackendFactory) -> None:
    """Register (or replace) a store backend factory under ``name``."""
    _REGISTRY[name] = factory


def available_store_backends() -> List[str]:
    return sorted(_REGISTRY)


def create_store_backend(name: str = "local", **options) -> StoreBackend:
    """Instantiate the named backend (``root=`` plus backend options)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        schemes = ", ".join(f"{scheme}://"
                            for scheme in available_store_backends())
        raise ValueError(
            f"unknown store backend {name!r} "
            f"(registered schemes: {schemes})") from None
    return factory(**options)
