"""The filesystem store backend: sharded dirs, atomic writes, mtime GC.

Layout (one file per entry, two-hex-character shard fan-out)::

    <root>/<kind>/<key[:2]>/<key>.json

Writes go to a uniquely named ``*.tmp`` sibling first and land with
:func:`os.replace`, so a reader (or a concurrent writer of the same key)
only ever observes a complete entry — the atomic-rename discipline that
makes N processes checking against one store safe without locking.  Any
read or write error degrades to a miss / dropped write: a broken cache must
never break (or slow down by crashing) the check it was accelerating.

``gc`` evicts oldest-mtime entries first until the store fits the byte
bound, and sweeps ``*.tmp`` droppings left by crashed writers.

A store path is a directory; ``local://PATH`` means ``PATH``.  Any other
``scheme://`` path is rejected by :func:`store_root` rather than created
as a directory named after the scheme.
"""

from __future__ import annotations

import itertools
import os
import pathlib
from typing import List, Optional, Tuple

from repro.store.backend import GcResult, KindStats, StoreStats


def store_root(path) -> pathlib.Path:
    """The directory a store path names; ``ValueError`` for a scheme
    other than ``local://``."""
    scheme, sep, rest = str(path).partition("://")
    if not sep:
        return pathlib.Path(path)
    if scheme == "local":
        return pathlib.Path(rest)
    raise ValueError(
        f"unsupported store path {str(path)!r}: the only store scheme is "
        f"local://; the networked stores (remote://, tiered://) were "
        f"removed; give a local directory")


class LocalStoreBackend:
    """Content-addressed entries as sharded files under one root."""

    def __init__(self, root) -> None:
        self.root = store_root(root)
        self._tmp_counter = itertools.count()

    # -- paths -------------------------------------------------------------

    def _path(self, kind: str, key: str) -> pathlib.Path:
        if not kind or any(ch in kind for ch in "/\\.") or kind.startswith("-"):
            raise ValueError(f"invalid artifact kind {kind!r}")
        if len(key) < 3 or not all(c.isalnum() or c in "-_" for c in key):
            raise ValueError(f"invalid artifact key {key!r}")
        return self.root / kind / key[:2] / f"{key}.json"

    # -- the byte-oriented protocol ----------------------------------------

    def get(self, kind: str, key: str) -> Optional[bytes]:
        try:
            return self._path(kind, key).read_bytes()
        except OSError:
            return None

    def put(self, kind: str, key: str, payload: bytes) -> bool:
        path = self._path(kind, key)
        tmp = path.with_name(
            f".{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False

    def stats(self) -> StoreStats:
        stats = StoreStats()
        for kind, entries in self._scan():
            stats.kinds[kind] = KindStats(
                entries=len(entries),
                bytes=sum(size for _path, size, _mtime in entries))
        return stats

    def gc(self, max_bytes: int) -> GcResult:
        """Evict oldest entries (by mtime, ties by path) past ``max_bytes``."""
        entries: List[Tuple[pathlib.Path, int, float]] = []
        for _kind, kind_entries in self._scan(sweep_tmp=True):
            entries.extend(kind_entries)
        entries.sort(key=lambda e: (e[2], str(e[0])))
        total = sum(size for _path, size, _mtime in entries)
        result = GcResult()
        for path, size, _mtime in entries:
            if total <= max_bytes:
                result.kept_entries += 1
                result.kept_bytes += size
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                # A concurrent writer (or another GC) already replaced or
                # removed this entry between listing and unlink: it is
                # gone, so it is neither kept nor evicted by this pass.
                total -= size
                continue
            except OSError:
                result.kept_entries += 1
                result.kept_bytes += size
                continue
            total -= size
            result.evicted_entries += 1
            result.evicted_bytes += size
        return result

    def clear(self) -> int:
        removed = 0
        for _kind, entries in self._scan(sweep_tmp=True):
            for path, _size, _mtime in entries:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- helpers -----------------------------------------------------------

    def _scan(self, sweep_tmp: bool = False):
        """Yield ``(kind, [(path, size, mtime), ...])`` per kind directory.

        With ``sweep_tmp`` the walk also unlinks stale ``*.tmp`` files —
        droppings of writers that died between write and rename."""
        if not self.root.is_dir():
            return
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            entries: List[Tuple[pathlib.Path, int, float]] = []
            for path in sorted(kind_dir.glob("*/*")):
                if path.name.endswith(".tmp"):
                    if sweep_tmp:
                        try:
                            path.unlink()
                        except OSError:
                            pass
                    continue
                if path.suffix != ".json":
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((path, stat.st_size, stat.st_mtime))
            yield kind_dir.name, entries
