"""``repro watch`` — re-check files whenever their mtime changes.

A :class:`Watcher` polls a fixed set of paths and re-checks each changed
one through a :class:`repro.client.Client` — the same protocol code path
the serve tests and ``repro bench serve`` use — backed by an in-process
service core by default (no sockets).  Each :meth:`Watcher.scan` polls the
filesystem once, sends a ``check`` request per changed path and prints a
one-line verdict with the per-edit timing delta::

    a.rsc: SAFE: 0 error(s) ... 0.41s  (warm, 1/9 declarations re-checked, -1.23s vs last)

Because every check crosses the protocol boundary, a checker crash comes
back as an ``internal-error`` *response* instead of an exception: the
watcher reports it as a one-line error and keeps watching — one
pathological file can no longer take down the loop.

The CLI drives scans in a sleep loop; tests drive them directly.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import IO, List, Optional, Sequence

from repro.client import Client
from repro.core.config import CheckConfig
from repro.service.core import DEFAULT_TENANT
from repro.service.protocol import CheckPayload
from repro.wire import ProtocolError


class Watcher:
    """Poll a fixed set of paths, re-checking through one service client."""

    def __init__(self, paths: Sequence[str],
                 config: Optional[CheckConfig] = None,
                 out: Optional[IO[str]] = None,
                 client: Optional[Client] = None) -> None:
        self.paths = [str(p) for p in paths]
        self.client = client or Client.local(config or CheckConfig())
        self.out = out if out is not None else sys.stdout
        self.errors_reported = 0
        self._mtimes: dict = {}
        self._unreadable: set = set()

    @property
    def workspace(self):
        """The underlying workspace (in-process transports only)."""
        core = self.client.transport.core
        return core.manager.get(DEFAULT_TENANT).workspace

    def scan(self) -> List[CheckPayload]:
        """One poll: check every path that changed since the last scan.

        The first scan checks everything (cold).  An unreadable path is
        reported once (including on the very first scan) and retried every
        poll until it becomes readable again — the mtime is only recorded
        after a served check, so a read racing an editor's write is picked
        up by the next scan rather than skipped forever.  A checker crash
        (``internal-error`` response) is reported and the path parked until
        its mtime moves again.
        """
        results: List[CheckPayload] = []
        for path in self.paths:
            try:
                mtime = pathlib.Path(path).stat().st_mtime_ns
            except OSError as exc:
                self._mtimes.pop(path, None)
                self._note_unreadable(path, exc)
                continue
            if self._mtimes.get(path) == mtime:
                continue
            try:
                payload = self.client.check(path)
            except ProtocolError as exc:
                if exc.code == "io-error":
                    self._note_unreadable(path, exc.message)
                    continue
                # Degraded mode: the checker crashed on this content.  Park
                # the path (recording the mtime) so the loop does not spin
                # hot re-crashing on the same bytes.
                self._mtimes[path] = mtime
                self.errors_reported += 1
                self.out.write(f"{path}: checker error "
                               f"({exc.code}: {exc.message})\n")
                continue
            self._mtimes[path] = mtime
            self._unreadable.discard(path)
            self._report(path, payload)
            results.append(payload)
        self.out.flush()
        return results

    def _note_unreadable(self, path: str, exc) -> None:
        if path not in self._unreadable:
            self._unreadable.add(path)
            self.out.write(f"{path}: unreadable ({exc})\n")

    def run(self, poll_seconds: float = 0.5,
            max_scans: Optional[int] = None) -> int:
        """Scan in a sleep loop until interrupted (or ``max_scans``)."""
        scans = 0
        try:
            while max_scans is None or scans < max_scans:
                self.scan()
                scans += 1
                if max_scans is not None and scans >= max_scans:
                    break
                time.sleep(poll_seconds)
        except KeyboardInterrupt:
            self.out.write("\nstopped\n")
        return 0

    def _report(self, path: str, payload: CheckPayload) -> None:
        solve = payload.solve_stats
        notes = []
        if payload.warm and solve:
            rechecked = solve.get("declarations_rechecked", 0)
            total = rechecked + solve.get("declarations_reused", 0)
            notes.append(f"warm, {rechecked}/{total} "
                         f"declarations re-checked")
        if payload.delta_seconds is not None:
            notes.append(f"{payload.delta_seconds:+.2f}s vs last")
        # Stage numbers come from the service's span tree (the same
        # StageTimings ``repro check`` prints), not a client-side clock —
        # watch/serve/check therefore report identical figures.
        timings = payload.timings or {}
        seconds = timings.get("total", payload.time_seconds)
        stages = ", ".join(f"{stage} {timings[stage]:.2f}s"
                           for stage in ("parse", "ssa", "constraints",
                                         "solve", "verify")
                           if timings.get(stage))
        if stages:
            notes.append(stages)
        suffix = f"  ({', '.join(notes)})" if notes else ""
        errors = sum(1 for d in payload.diagnostics
                     if d.get("severity") == "error")
        warnings = sum(1 for d in payload.diagnostics
                       if d.get("severity") == "warning")
        self.out.write(f"{path}: {payload.status}: {errors} error(s), "
                       f"{warnings} warning(s), "
                       f"{seconds:.2f}s{suffix}\n")


def watch(paths: Sequence[str], config: Optional[CheckConfig] = None,
          poll_seconds: float = 0.5, max_scans: Optional[int] = None,
          out: Optional[IO[str]] = None) -> int:
    """Entry point used by ``repro watch``."""
    return Watcher(paths, config, out=out).run(poll_seconds, max_scans)
