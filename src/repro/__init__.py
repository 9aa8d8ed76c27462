"""Refined TypeScript (RSC) - a reproduction of "Refinement Types for
TypeScript" (Vekris, Cosman, Jhala; PLDI 2016) in pure Python.

Workspace API (preferred — long-lived documents, incremental re-checks)::

    from repro import CheckConfig, Workspace

    ws = Workspace(CheckConfig())
    result = ws.open("a.rsc", source)      # cold check
    result = ws.update("a.rsc", edited)    # warm re-check of the edit only

Session API (one-shot facade — one solver amortised across batch runs)::

    from repro import Session

    session = Session(CheckConfig(warnings_as_errors=True))
    result = session.check_source(source)
    batch = session.check_files(["a.rsc", "b.rsc"])

Project API (multi-module graphs: imports/exports, interface summaries,
signature-cut incremental re-checks; one engine, the ProjectWorkspace, of
which ``check_project`` is the cold build)::

    from repro import ProjectWorkspace, Session, check_project

    project = Session().check_project("my-project")   # == check_project(...)
    pw = ProjectWorkspace(root="my-project")
    pw.check()
    update = pw.update("my-project/lib.rsc")   # body edit -> 1 module

Persistent artifact store (cross-process caching — interface summaries,
kappa solutions, SMT verdict memos; see :mod:`repro.store`)::

    from repro import CheckConfig, Session

    config = CheckConfig(store_path="/var/cache/repro")
    Session(config).check_file("a.rsc")    # cold: populates the store
    Session(config).check_file("a.rsc")    # fresh process: zero SMT queries

Check service (multi-tenant serve protocol v3; see :mod:`repro.service`
and :mod:`repro.client`)::

    from repro import Client

    client = Client.connect("127.0.0.1", 7345, tenant="alice")
    payload = client.check("a.rsc", source)     # typed CheckPayload
    client.update("a.rsc", edited)
    print(client.stats().tenants["alice"]["latency"]["p50_ms"])

Cold start: ``import repro`` loads the checker and nothing else.
``Client``, ``ArtifactStore`` and the project names (``ProjectResult``,
``ProjectUpdate``, ``ProjectWorkspace``, ``check_project``) resolve on
first access through a module ``__getattr__`` (PEP 562), so a one-shot
``repro check FILE`` never imports the service stack (``asyncio``, ``ssl``,
``socket``), the project engine or, without a ``store_path``, the artifact
store, and ``check_files(jobs=N)`` imports its process pool only when it
starts one.
"""

import importlib

from repro.core.cancel import CancelToken, CheckCancelled
from repro.core.config import CheckConfig, ServiceOptions, SolverOptions
from repro.core.result import (BatchResult, CheckResult, SolveStats,
                               StageTimings)
from repro.core.session import Session
from repro.core.workspace import Workspace
from repro.errors import ERROR_CATALOG, Diagnostic, explain_code

__version__ = "3.0.0"

__all__ = [
    "ArtifactStore",
    "BatchResult",
    "CancelToken",
    "CheckCancelled",
    "CheckConfig",
    "CheckResult",
    "Client",
    "Diagnostic",
    "ERROR_CATALOG",
    "ServiceOptions",
    "ProjectResult",
    "ProjectUpdate",
    "ProjectWorkspace",
    "Session",
    "SolveStats",
    "SolverOptions",
    "StageTimings",
    "Workspace",
    "check_project",
    "explain_code",
    "__version__",
]

#: Public names whose modules load on first access (PEP 562): the client
#: pulls in the service stack, and neither the project engine nor the
#: artifact store is needed to check one file.
_LAZY = {
    "ArtifactStore": "repro.store",
    "Client": "repro.client",
    "ProjectResult": "repro.project",
    "ProjectUpdate": "repro.project",
    "ProjectWorkspace": "repro.project",
    "check_project": "repro.project",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
