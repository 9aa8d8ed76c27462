"""The public SMT facade: lazy DPLL(T) validity and satisfiability checking.

The refinement checker asks two kinds of questions:

* ``check_implication(hypotheses, goal)`` — does the conjunction of
  hypotheses imply the goal?  This is how subtyping obligations
  (verification conditions) are discharged.
* ``check(formula)`` / ``is_satisfiable`` / ``is_valid`` — a bare
  formula with a fresh SAT solver per query.  No checking stage calls
  them; they are the test suite's reference for the contexts below.

A bare formula goes through the lazy SMT loop of :meth:`Solver._check_sat`:
it is simplified, converted to CNF over theory atoms (:mod:`repro.smt.cnf`)
and solved by a throwaway CDCL SAT core (:mod:`repro.smt.sat`).  Each
propositional model is checked against the combined theory
(:mod:`repro.smt.theory`); theory conflicts become blocking clauses until a
theory-consistent model is found (satisfiable) or the SAT solver reports
unsatisfiability.

Implications take the one engine of :mod:`repro.smt.context` instead: a
persistent context per hypothesis environment, each goal solved under a
selector assumption.  Both paths share the result cache, keyed by
``neg(antecedent => goal)``, so ``is_valid(implies(conj(hyps), goal))``
asks the same question with a fresh SAT solver per query.  That is the
reference the test suite compares the contexts against.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.simplify import simplify
from repro.logic.terms import BoolLit, Expr, clear_memos, conj, implies, neg
from repro.node import Record, fields
from repro.smt.cnf import AtomMap, tseitin, to_nnf
from repro.smt.context import ContextManager
from repro.smt.model import TheoryModel
from repro.smt.sat import SatSolver
from repro.smt.theory import check_with_core
from repro.obs.trace import span as trace_span


class Result(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Counters(Record):
    """Base of a record whose every field is a summable counter."""

    def merge(self, other) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SolverStats(Counters):
    """Counters accumulated across queries (reported by the bench harness)."""

    queries: int = 0
    valid: int = 0
    invalid: int = 0
    sat_calls: int = 0
    theory_checks: int = 0
    #: queries answered UNKNOWN (theory-iteration budget exhausted, a
    #: Fourier–Motzkin give-up, or a conflict over no decidable atom);
    #: never cached or persisted
    giveups: int = 0
    blocking_clauses: int = 0
    cache_hits: int = 0
    contexts_created: int = 0
    contexts_reused: int = 0
    clauses_learned: int = 0
    lemmas_reused: int = 0
    #: congruence-closure nodes created by theory checks (and by building
    #: each context's root theory state)
    euf_terms_added: int = 0
    #: top-level ``linearize`` calls made by theory checks (two per
    #: arithmetic literal linearised; reused root rows cost none)
    linearize_calls: int = 0
    #: the SAT solvers' own work: branching decisions, conflicts and
    #: propagated trail literals, over every search, probe and clause
    #: addition (contexts report theirs after each goal)
    sat_decisions: int = 0
    sat_conflicts: int = 0
    sat_propagations: int = 0
    #: goals answered "not valid" by evaluation under a model an earlier
    #: refutation of the same batch kept: no SAT call, no theory check
    model_refutations: int = 0
    time_seconds: float = 0.0

    def copy(self) -> "SolverStats":
        return SolverStats(**self.to_dict())

    def delta_since(self, earlier: "SolverStats") -> "SolverStats":
        """The stats accumulated since the ``earlier`` snapshot was taken."""
        return SolverStats(**{
            key: value - getattr(earlier, key)
            for key, value in self.to_dict().items()
        })


class Solver:
    """The SMT query engine behind every checking session.

    Implication queries are routed through persistent assumption-based
    :class:`repro.smt.context.SolverContext` objects, one per hypothesis
    environment, kept in an LRU of ``context_cache_limit`` entries (see
    :mod:`repro.smt.context`).  The test suite holds them to the verdicts
    of a fresh SAT solver per query (:meth:`is_valid` of the implication),
    on fuzzed batches and on every benchmark port.

    The query/result cache is keyed by the (hashable) formula, evicts
    least-recently-used entries past ``cache_size_limit`` (0 disables it),
    and survives for the lifetime of the solver, so a long-lived solver
    shared by a :class:`repro.core.workspace.Workspace` amortises repeated
    obligations across many files.
    """

    def __init__(self, max_theory_iterations: int = 5000,
                 cache_size_limit: int = 200_000,
                 context_cache_limit: int = 64) -> None:
        self.max_theory_iterations = max_theory_iterations
        self.stats = SolverStats()
        self.cache_size_limit = cache_size_limit
        self.contexts = ContextManager(
            limit=context_cache_limit,
            max_theory_iterations=max_theory_iterations)
        self._cache: "OrderedDict[Expr, Result]" = OrderedDict()
        self._recorders: List[Dict[Expr, Result]] = []

    # -- public queries ------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop every cached query result (statistics are kept).

        Also drops the logic layer's per-process traversal memos
        (simplify/substitute/free_vars/NNF) so an explicit cache reset
        bounds *all* derived-result tables at once; the term intern table
        itself survives — see :mod:`repro.logic.terms`.
        """
        self._cache.clear()
        clear_memos()

    def seed_cache(self, entries: Iterable[Tuple[Expr, Result]]) -> int:
        """Pre-populate the result cache with already-known verdicts.

        This is how the persistent artifact store (:mod:`repro.store`)
        replays a previous process's verdict memos: seeded entries are
        served as ordinary cache hits, so a store-warm check issues no
        queries for them at all.  Entries past ``cache_size_limit`` evict
        LRU-first as usual.  Returns how many entries were installed
        (0 when ``cache_size_limit`` is 0, which disables the cache)."""
        if self.cache_size_limit <= 0:
            return 0
        count = 0
        for formula, result in entries:
            self._cache_store(formula, result)
            count += 1
        return count

    def record_queries(self, sink: Dict[Expr, Result]) -> None:
        """Mirror every verdict this solver serves into ``sink``.

        Both freshly computed results and cache hits are recorded — a
        check window's recording is therefore complete even when a shared
        long-lived solver already held some of its obligations — until
        :meth:`stop_recording` detaches the sink."""
        self._recorders.append(sink)

    def stop_recording(self, sink: Dict[Expr, Result]) -> None:
        self._recorders = [r for r in self._recorders if r is not sink]

    def _record(self, formula: Expr, result: Result) -> None:
        if result is Result.UNKNOWN:
            return  # a give-up is not a verdict a later check may replay
        for sink in self._recorders:
            sink[formula] = result

    def _cache_lookup(self, formula: Expr) -> Optional[Result]:
        result = self._cache.get(formula)
        if result is not None:
            self.stats.cache_hits += 1
            self._cache.move_to_end(formula)
            self._record(formula, result)
        return result

    def _cache_store(self, formula: Expr, result: Result) -> None:
        if self.cache_size_limit <= 0 or result is Result.UNKNOWN:
            return
        self._cache[formula] = result
        self._cache.move_to_end(formula)
        while len(self._cache) > self.cache_size_limit:
            self._cache.popitem(last=False)

    def check(self, formula: Expr) -> Result:
        """Satisfiability of ``formula``."""
        cached = self._cache_lookup(formula)
        if cached is not None:
            return cached
        with trace_span("smt.check", "smt") as sp:
            start = time.perf_counter()
            self.stats.queries += 1
            try:
                result = self._check_sat(formula)
            finally:
                self.stats.time_seconds += time.perf_counter() - start
            sp.note(result=result.value)
        self._cache_store(formula, result)
        self._record(formula, result)
        return result

    def is_satisfiable(self, formula: Expr) -> bool:
        return self.check(formula) is Result.SAT

    def is_valid(self, formula: Expr) -> bool:
        """Validity of ``formula`` (unsatisfiability of its negation)."""
        result = self.check(neg(formula))
        valid = result is Result.UNSAT
        if valid:
            self.stats.valid += 1
        else:
            self.stats.invalid += 1
        return valid

    def check_implication(self, hypotheses: Sequence[Expr], goal: Expr) -> bool:
        """Validity of ``/\\ hypotheses => goal`` — the VC entry point."""
        antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
        return self._check_goal(antecedent, goal)

    def check_implication_batch(self, hypotheses: Sequence[Expr],
                                goals: Sequence[Expr]) -> List[bool]:
        """Validity of ``/\\ hypotheses => goal`` for each goal in turn.

        The antecedent conjunction is built once and every query still flows
        through the result cache.  The whole batch is discharged against one
        persistent :class:`SolverContext`: the hypotheses' CNF is asserted
        once, each goal is solved under a fresh selector assumption, and
        learned/theory clauses carry over from goal to goal (and to later
        batches over the same environment).

        Each refutation keeps its theory model for the rest of the batch,
        and a later goal that a kept model refutes is answered without the
        SAT solver (see :mod:`repro.smt.model`).  The models are dropped
        when the batch returns."""
        antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
        models: List[TheoryModel] = []
        return [self._check_goal(antecedent, goal, models) for goal in goals]

    def _check_goal(self, antecedent: Expr, goal: Expr,
                    models: Optional[List[TheoryModel]] = None) -> bool:
        """One implication goal through its environment's context.

        Caches under the key :meth:`is_valid` would use for
        ``antecedent => goal`` (``neg(antecedent => goal)``), so repeated
        obligations never touch a context twice.  ``models`` are the kept
        models of the goal's batch, if it has one.
        """
        formula = neg(implies(antecedent, goal))
        cached = self._cache_lookup(formula)
        if cached is not None:
            result = cached
        else:
            with trace_span("smt.query", "smt") as sp:
                start = time.perf_counter()
                self.stats.queries += 1
                try:
                    context = self.contexts.context_for(antecedent,
                                                        self.stats)
                    refuted_before = self.stats.model_refutations
                    verdict = context.check_goal(goal, self.stats, models)
                    # Tri-state, like the lazy loop: None (budget
                    # exhausted) is UNKNOWN and must not be cached as a
                    # real SAT answer.
                    if verdict is None:
                        self.stats.giveups += 1
                        result = Result.UNKNOWN
                    else:
                        result = Result.UNSAT if verdict else Result.SAT
                finally:
                    self.stats.time_seconds += time.perf_counter() - start
                if self.stats.model_refutations != refuted_before:
                    sp.note(result=result.value, model=True)
                else:
                    sp.note(result=result.value)
            self._cache_store(formula, result)
            self._record(formula, result)
        valid = result is Result.UNSAT
        if valid:
            self.stats.valid += 1
        else:
            self.stats.invalid += 1
        return valid

    def environment_inconsistent(self, hypotheses: Sequence[Expr]) -> bool:
        """True iff the hypotheses are unsatisfiable (dead code detection)."""
        antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
        return self.check(antecedent) is Result.UNSAT

    # -- the lazy SMT loop ---------------------------------------------------

    def _check_sat(self, formula: Expr) -> Result:
        formula = simplify(formula)
        if isinstance(formula, BoolLit):
            return Result.SAT if formula.value else Result.UNSAT

        atoms = AtomMap()
        nnf = to_nnf(formula, True)
        clauses = tseitin(nnf, atoms)

        sat = SatSolver()
        try:
            for clause in clauses:
                if not sat.add_clause(clause):
                    return Result.UNSAT
            for _ in range(self.max_theory_iterations):
                self.stats.sat_calls += 1
                if not sat.solve():
                    return Result.UNSAT
                model = sat.model()
                literals = []
                for var, value in model.items():
                    atom = atoms.atom_of(var)
                    if atom is not None:
                        literals.append((atom, value))
                self.stats.theory_checks += 1
                result = check_with_core(literals)
                self.stats.euf_terms_added += result.terms_added
                self.stats.linearize_calls += result.linearize_calls
                if result.satisfiable:
                    if result.gave_up:
                        self.stats.giveups += 1
                        return Result.UNKNOWN
                    return Result.SAT
                # Block this theory-inconsistent assignment.
                core = result.core or literals
                blocking = []
                for atom, value in core:
                    var = atoms.atom_to_var.get(atom)
                    if var is None:
                        continue
                    blocking.append(-var if value else var)
                if not blocking:
                    # The conflict does not mention any decidable atom; give
                    # up conservatively (formula may or may not be
                    # satisfiable).
                    self.stats.giveups += 1
                    return Result.UNKNOWN
                self.stats.blocking_clauses += 1
                if not sat.add_clause(blocking):
                    return Result.UNSAT
            self.stats.giveups += 1
            return Result.UNKNOWN
        finally:
            # Everything this throwaway solver learned is discarded with it,
            # unlike the persistent contexts.
            self.stats.clauses_learned += sat.num_learned
            self.stats.sat_decisions += sat.num_decisions
            self.stats.sat_conflicts += sat.num_conflicts
            self.stats.sat_propagations += sat.num_propagations

