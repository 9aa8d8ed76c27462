"""The artifact-store seam.

The checking pipeline only ever talks to the store through the narrow
byte-oriented surface below, captured as a runtime-checkable protocol and
implemented by :class:`repro.store.local.LocalStoreBackend` (sharded files
on disk).

Backends deal in opaque payload bytes — encoding, keying and corruption
handling live above them in :class:`repro.store.ArtifactStore` — and their
``get``/``put`` must be safe under concurrent writers (the local backend
uses atomic tmp-file + rename).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from repro.node import Record, field


class KindStats(Record, frozen=True):
    """Entry count and byte total for one artifact kind."""

    entries: int = 0
    bytes: int = 0


class StoreStats(Record):
    """Per-kind usage of a store, as reported by ``repro cache stats``."""

    kinds: Dict[str, KindStats] = field(default_factory=dict)

    @property
    def total_entries(self) -> int:
        return sum(k.entries for k in self.kinds.values())

    @property
    def total_bytes(self) -> int:
        return sum(k.bytes for k in self.kinds.values())

    def to_dict(self) -> dict:
        return {
            "kinds": {name: {"entries": k.entries, "bytes": k.bytes}
                      for name, k in sorted(self.kinds.items())},
            "total_entries": self.total_entries,
            "total_bytes": self.total_bytes,
        }


class GcResult(Record):
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

