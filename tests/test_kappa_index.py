"""The per-term kappa index of the liquid fixpoint.

``kappa_apps`` memoises each interned term's kappa applications once per
process; ``kappa_occurrences``, ``LiquidSolver.apply``, the worklist's
dependency graph and the workspace's partition test all read it.  The
oracles here are the walks it replaced: a plain ``subterms`` scan, and a
walk-and-replace over every kappa subterm.  A warm edit must find every
term already indexed, so it walks none of them again.
"""

import pathlib

import pytest

from repro import Session, Workspace
from repro.core.liquid import fixpoint
from repro.core.liquid.fixpoint import LiquidSolver, kappa_occurrences
from repro.logic.terms import clear_memos, subst_term, subterms
from repro.rtypes.types import is_kvar_app

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
PORTS = sorted((BENCHMARKS / "programs").glob("*.rsc"))
PROJECTS = sorted(p for p in (BENCHMARKS / "modules").iterdir()
                  if p.is_dir())


def walked_occurrences(expr):
    return {sub.fn for sub in subterms(expr) if is_kvar_app(sub)}


def walk_and_replace(liquid, expr, solution):
    """``LiquidSolver.apply`` before the index: one ``subst_term`` per kappa
    subterm found by a fresh walk."""
    replaced = expr
    for sub in list(subterms(expr)):
        if is_kvar_app(sub):
            replaced = subst_term(replaced, sub,
                                  liquid.instantiate(sub, solution))
    return replaced


def solved_inputs(path):
    """``(liquid solver, implications, solution)`` of every solve a cold
    check of ``path`` (a port, or a module project's directory) runs."""
    captured = []
    solve = LiquidSolver.solve

    def capturing(self, implications, *args, **kwargs):
        solution = solve(self, implications, *args, **kwargs)
        captured.append((self, list(implications), solution))
        return solution
    LiquidSolver.solve = capturing
    try:
        if path.is_dir():
            Session().check_project(path)
        else:
            Session().check_file(path)
    finally:
        LiquidSolver.solve = solve
    return captured


def answers(captured):
    out = []
    for liquid, implications, solution in captured:
        for imp in implications:
            for term in (imp.goal, *imp.hyps):
                out.append((term, kappa_occurrences(term),
                            liquid.apply(term, solution)))
    return out


@pytest.mark.parametrize("path", PORTS + PROJECTS, ids=lambda p: p.name)
def test_index_agrees_with_the_walks(path):
    captured = solved_inputs(path)
    assert captured
    indexed = answers(captured)
    assert any(names for _, names, _ in indexed)
    for liquid, implications, solution in captured:
        for imp in implications:
            for term in (imp.goal, *imp.hyps):
                assert kappa_occurrences(term) == walked_occurrences(term)
                assert liquid.apply(term, solution) is \
                    walk_and_replace(liquid, term, solution)
    clear_memos()
    assert fixpoint._KAPPA_APPS_MEMO == {}
    assert answers(captured) == indexed


def test_apply_leaves_a_kappa_free_term_unwalked(monkeypatch):
    captured = solved_inputs(PORTS[0])
    liquid, implications, solution = captured[0]
    plain = next(hyp for imp in implications for hyp in imp.hyps
                 if not walked_occurrences(hyp))
    liquid.apply(plain, solution)
    monkeypatch.setattr(fixpoint, "subterms", None)
    assert liquid.apply(plain, solution) is plain


def test_warm_edit_walks_no_term(monkeypatch):
    """The second of two comment-only edits rebuilds the same interned
    terms, all indexed by the first: no ``subterms`` walk at all."""
    text = (BENCHMARKS / "programs" / "d3-arrays.rsc").read_text()
    workspace = Workspace()
    assert workspace.open("d3-arrays.rsc", text).ok
    assert workspace.update("d3-arrays.rsc", text + "\n// edit 1\n").ok
    walks = []

    def counting(expr):
        walks.append(expr)
        return subterms(expr)
    monkeypatch.setattr(fixpoint, "subterms", counting)
    checks = workspace.checks_run
    result = workspace.update("d3-arrays.rsc", text + "\n// edit 2\n")
    assert result.ok
    assert workspace.checks_run == checks + 1  # re-checked, not a cache hit
    assert walks == []
