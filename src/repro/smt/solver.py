"""The public SMT facade: lazy DPLL(T) validity and satisfiability checking.

The refinement checker asks two kinds of questions:

* ``is_valid(hypotheses, goal)`` — does the conjunction of hypotheses imply
  the goal?  This is how subtyping obligations (verification conditions) are
  discharged.
* ``is_satisfiable(formula)`` — used by two-phase typing to detect dead code
  (an inconsistent environment) and by the test-suite.

Architecture: the formula is simplified, converted to CNF over theory atoms
(:mod:`repro.smt.cnf`), and solved by the CDCL SAT core
(:mod:`repro.smt.sat`).  Each propositional model is checked against the
combined theory (:mod:`repro.smt.theory`); theory conflicts are turned into
blocking clauses and the loop continues until either a theory-consistent
model is found (satisfiable) or the SAT solver reports unsatisfiability.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.simplify import simplify
from repro.logic.terms import BoolLit, Expr, clear_memos, conj, implies, neg
from repro.smt.cnf import AtomMap, tseitin, to_nnf
from repro.smt.context import ContextManager
from repro.smt.sat import SatSolver
from repro.smt.theory import check_with_core
from repro.obs.trace import span as trace_span

#: Query engines understood by :class:`Solver` (mirrored by
#: :data:`repro.core.config.SMT_MODES` for :class:`CheckConfig` validation).
SMT_MODES = ("incremental", "fresh")

#: The engine a :class:`Solver` and a :class:`repro.core.config.CheckConfig`
#: use unless told otherwise.
DEFAULT_SMT_MODE = "incremental"


class Result(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
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
    #: congruence-closure nodes created by theory checks (and, in
    #: incremental mode, by building each context's root theory state)
    euf_terms_added: int = 0
    #: top-level ``linearize`` calls made by theory checks (two per
    #: arithmetic literal linearised; reused root rows cost none)
    linearize_calls: int = 0
    time_seconds: float = 0.0

    def merge(self, other: "SolverStats") -> None:
        self.queries += other.queries
        self.valid += other.valid
        self.invalid += other.invalid
        self.sat_calls += other.sat_calls
        self.theory_checks += other.theory_checks
        self.giveups += other.giveups
        self.blocking_clauses += other.blocking_clauses
        self.cache_hits += other.cache_hits
        self.contexts_created += other.contexts_created
        self.contexts_reused += other.contexts_reused
        self.clauses_learned += other.clauses_learned
        self.lemmas_reused += other.lemmas_reused
        self.euf_terms_added += other.euf_terms_added
        self.linearize_calls += other.linearize_calls
        self.time_seconds += other.time_seconds

    def copy(self) -> "SolverStats":
        return SolverStats(**self.to_dict())

    def delta_since(self, earlier: "SolverStats") -> "SolverStats":
        """The stats accumulated since the ``earlier`` snapshot was taken."""
        return SolverStats(**{
            key: value - getattr(earlier, key)
            for key, value in self.to_dict().items()
        })

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "valid": self.valid,
            "invalid": self.invalid,
            "sat_calls": self.sat_calls,
            "theory_checks": self.theory_checks,
            "giveups": self.giveups,
            "blocking_clauses": self.blocking_clauses,
            "cache_hits": self.cache_hits,
            "contexts_created": self.contexts_created,
            "contexts_reused": self.contexts_reused,
            "clauses_learned": self.clauses_learned,
            "lemmas_reused": self.lemmas_reused,
            "euf_terms_added": self.euf_terms_added,
            "linearize_calls": self.linearize_calls,
            "time_seconds": self.time_seconds,
        }


class Solver:
    """The SMT query engine behind every checking session.

    ``smt_mode`` selects how implication batches are discharged:

    * ``"incremental"`` (the default, :data:`DEFAULT_SMT_MODE`, shared with
      :attr:`repro.core.config.CheckConfig.smt_mode`) — implication queries
      are routed through persistent assumption-based
      :class:`repro.smt.context.SolverContext` objects, one per hypothesis
      environment, kept in an LRU of ``context_cache_limit`` entries (see
      :mod:`repro.smt.context`);
    * ``"fresh"`` (the historical behaviour, kept as the reference) —
      every query builds its own CNF and SAT solver.

    Verdicts are identical in both modes (asserted by the differential fuzz
    suite, and by the shared verdict digest of the ``NAME`` and
    ``NAME/fresh`` rows of ``repro bench smt``); only the work counters
    differ.

    The query/result cache is keyed by the (hashable) formula, evicts
    least-recently-used entries past ``cache_size_limit``, and survives for
    the lifetime of the solver, so a long-lived solver shared by a
    :class:`repro.core.session.Session` amortises repeated obligations
    across many files.
    """

    def __init__(self, max_theory_iterations: int = 5000,
                 cache_results: bool = True,
                 cache_size_limit: int = 200_000,
                 smt_mode: str = DEFAULT_SMT_MODE,
                 context_cache_limit: int = 64) -> None:
        if smt_mode not in SMT_MODES:
            raise ValueError(f"unknown smt_mode {smt_mode!r} "
                             f"(expected one of {', '.join(SMT_MODES)})")
        self.max_theory_iterations = max_theory_iterations
        self.stats = SolverStats()
        self.cache_results = cache_results
        self.cache_size_limit = cache_size_limit
        self.smt_mode = smt_mode
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
        (0 when result caching is disabled)."""
        if not self.cache_results or self.cache_size_limit <= 0:
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
        if not self.cache_results:
            return None
        result = self._cache.get(formula)
        if result is not None:
            self.stats.cache_hits += 1
            self._cache.move_to_end(formula)
            self._record(formula, result)
        return result

    def _cache_store(self, formula: Expr, result: Result) -> None:
        if (not self.cache_results or self.cache_size_limit <= 0
                or result is Result.UNKNOWN):
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
        if self.smt_mode == "incremental":
            return self._check_goal_incremental(antecedent, goal)
        return self.is_valid(implies(antecedent, goal))

    def check_implication_batch(self, hypotheses: Sequence[Expr],
                                goals: Sequence[Expr]) -> List[bool]:
        """Validity of ``/\\ hypotheses => goal`` for each goal in turn.

        The antecedent conjunction is built once and every query still flows
        through the result cache.  In ``"incremental"`` mode the whole batch
        is discharged against one persistent :class:`SolverContext`: the
        hypotheses' CNF is asserted once, each goal is solved under a fresh
        selector assumption, and learned/theory clauses carry over from goal
        to goal (and to later batches over the same environment)."""
        antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
        if self.smt_mode == "incremental":
            return [self._check_goal_incremental(antecedent, goal)
                    for goal in goals]
        return [self.is_valid(implies(antecedent, goal)) for goal in goals]

    def _check_goal_incremental(self, antecedent: Expr, goal: Expr) -> bool:
        """One implication goal through the persistent-context engine.

        Caches under the same key as the fresh path
        (``neg(antecedent => goal)``), so repeated obligations are served
        identically in both modes and never touch a context twice.
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
                    verdict = context.check_goal(goal, self.stats)
                    # Tri-state, like the fresh loop: None (budget
                    # exhausted) is UNKNOWN and must not be cached as a
                    # real SAT answer.
                    if verdict is None:
                        self.stats.giveups += 1
                        result = Result.UNKNOWN
                    else:
                        result = Result.UNSAT if verdict else Result.SAT
                finally:
                    self.stats.time_seconds += time.perf_counter() - start
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
        for clause in clauses:
            if not sat.add_clause(clause):
                return Result.UNSAT

        try:
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
            # unlike the incremental engine's persistent contexts.
            self.stats.clauses_learned += sat.num_learned

