"""A small SMT solver for the decidable fragment RSC relies on.

The paper discharges verification conditions with Z3.  Z3 is not available in
this environment, so this package implements the required fragment from
scratch:

* :mod:`repro.smt.sat`      — a CDCL propositional SAT solver,
* :mod:`repro.smt.cnf`      — NNF / Tseitin conversion of formulas to CNF over
                              theory atoms,
* :mod:`repro.smt.euf`      — proof-forest congruence closure for equality
                              and uninterpreted functions, with
                              explanations,
* :mod:`repro.smt.lia`      — linear integer arithmetic (Fourier–Motzkin with
                              integer-tightened strict inequalities and
                              tagged constraints),
* :mod:`repro.smt.bvmask`   — the constant bit-mask bit-vector fragment used
                              by the tsc interface-hierarchy benchmark,
* :mod:`repro.smt.theory`   — Nelson–Oppen-style combination of the theories,
                              returning an explained unsat core per conflict;
                              a model is checked as a root theory state plus
                              its own literals,
* :mod:`repro.smt.context`  — persistent assumption-based contexts: one
                              long-lived SAT solver per hypothesis
                              environment, goals checked under selector
                              assumptions, learned/theory clauses retained,
                              one root theory state for the hypotheses
                              fixed at decision level 0,
* :mod:`repro.smt.solver`   — the lazy-SMT loop and the public ``Solver``
                              facade (``is_valid`` / ``is_satisfiable``),
                              routing every implication through a context.

The combination is sound for validity: whenever :meth:`Solver.is_valid`
returns ``True`` the formula really is valid in QF_UFLIA + constant masks.
Incompleteness only ever causes spurious "not valid" answers (i.e. spurious
type errors), never unsoundness.
"""

from repro.smt.solver import Result, Solver, SolverStats
from repro.smt.context import ContextManager, SolverContext, TheoryLemmaStore

__all__ = [
    "Solver",
    "SolverStats",
    "Result",
    "ContextManager",
    "SolverContext",
    "TheoryLemmaStore",
]
