"""The RSC refinement type checker.

The public entry points:

* :class:`repro.core.workspace.Workspace` — the one checking object:
  long-lived documents with incremental re-checks, and one-shot checks
  (``check_source``/``check_files``/...) sharing its solver;
  :class:`repro.core.session.Session` is another name for it,
* :class:`repro.core.result.CheckResult` — diagnostics plus statistics.
"""

from repro.core.result import CheckResult
from repro.core.session import Session
from repro.core.workspace import Workspace

__all__ = ["CheckResult", "Session", "Workspace"]
