"""Multi-module projects: imports/exports, interface summaries, build graph.

The project subsystem makes the checker project-aware end to end::

    from repro.project import check_project, ProjectWorkspace

    result = check_project("my-project")             # cold build
    print(result.summary())

    pw = ProjectWorkspace(root="my-project")
    pw.check()
    update = pw.update("my-project/lib.rsc")         # signature-cut re-check
    print(update.rechecked, update.reused)

Modules are ``*.rsc`` files linked by ``import {a, b} from "./mod";`` and
``export`` modifiers.  Each module is checked against its dependencies'
*interface summaries* (refinement-typed signatures), never their bodies —
see :mod:`repro.project.summary` for the cut, :mod:`repro.project.graph`
for resolution/cycles/ranks and :mod:`repro.project.workspace` for the one
project engine: :func:`check_project` is a cold
:meth:`ProjectWorkspace.check`, and :meth:`ProjectWorkspace.update` is the
incremental re-check of an edit.
"""

from repro.project.graph import Module, ModuleGraph, resolve_specifier
from repro.project.result import ProjectResult
from repro.project.summary import ModuleSummary, summarize_program
from repro.project.workspace import (ProjectUpdate, ProjectWorkspace,
                                     check_project)

__all__ = [
    "Module",
    "ModuleGraph",
    "ModuleSummary",
    "ProjectResult",
    "ProjectUpdate",
    "ProjectWorkspace",
    "check_project",
    "resolve_specifier",
    "summarize_program",
]
