"""Tracing a module-graph build end-to-end.

Enables the process-wide tracer, checks the ``d3-arrays`` module project,
exports the Chrome trace-event document, and prints the summary tables —
the same breakdown ``repro check --trace`` and ``repro trace summarize``
produce (one per-module row per module document).  The exported file
loads directly in Perfetto (https://ui.perfetto.dev) as a flame-chart,
spans nested ``pipeline.check`` -> ``stage.solve`` -> ``fixpoint.scc`` ->
``smt.query``.
Run from the repository root::

    PYTHONPATH=src python examples/trace_project.py
"""

import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import Session  # noqa: E402
from repro.obs.summary import (check_nesting, format_summary,  # noqa: E402
                               summarize, validate_trace)
from repro.obs.trace import tracer  # noqa: E402

PROJECT = pathlib.Path(__file__).parent.parent / "benchmarks" / "modules" \
    / "d3-arrays"


def main():
    trace_path = pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-demo-")) \
        / "trace.json"

    # Enable the tracer, build the project, export.
    trace_id = tracer().enable()
    project = Session().check_project(PROJECT)
    document = tracer().export(trace_path)
    tracer().disable()

    print(f"checked {len(project.results)} modules "
          f"({'all safe' if project.ok else 'UNSAFE'}), "
          f"trace {trace_id} -> {trace_path}")
    assert validate_trace(document) == [], "export must be schema-valid"
    assert check_nesting(document) == [], "spans must nest per track"

    print()
    print(format_summary(summarize(document)))
    print()
    print(f"open {trace_path} in https://ui.perfetto.dev for the "
          f"flame-chart, or re-summarize with:\n"
          f"  python -m repro trace summarize {trace_path}")


if __name__ == "__main__":
    main()
