"""``Session`` — the name one-shot callers import the checker by.

A session *is* a :class:`repro.core.workspace.Workspace`: the one checking
object serves both long-lived documents and one-shot cold checks
(``check_source``, ``check_file``, ``check_program``, ``check_files``,
``check_project``) over one shared solver.  The stage artifact types are
re-exported here for callers that import them from this module.
"""

from repro.core.workspace import (  # noqa: F401  (re-exported stage types)
    ConstraintsStage,
    ParseStage,
    SolveStage,
    SsaStage,
    Workspace,
    nesting_too_deep,
)

Session = Workspace
