"""Persistent, assumption-based SMT contexts for implication batches.

The refinement checker discharges *batches* of validity queries that share
one hypothesis environment: the liquid fixpoint weakens a kappa by asking
``/\\ hyps => goal_i`` for every candidate qualifier, and revisits the same
environment across fixpoint rounds.  The classic fresh-solver loop
(:meth:`repro.smt.solver.Solver._check_sat`) rebuilds the Tseitin CNF and a
new :class:`repro.smt.sat.SatSolver` per goal, discarding every learned
clause and theory lemma each time.

A :class:`SolverContext` keeps one long-lived SAT solver per hypothesis
environment instead:

* the environment's CNF is asserted **once** (incremental Tseitin into a
  shared :class:`repro.smt.cnf.AtomMap`),
* each goal adds the negated-goal clauses guarded by a fresh *selector*
  literal and solves under the assumption that the selector holds
  (``SatSolver.solve(assumptions)``), so retiring a goal is one permanent
  unit clause (``[-selector]``) rather than a solver rebuild,
* CDCL-learned clauses and theory conflict clauses (which are valid lemmas
  over the shared atoms, independent of any goal) persist across all goals
  of a batch *and* across fixpoint rounds that revisit the environment.

Contexts live in an LRU (:class:`ContextManager`) keyed by the environment's
antecedent term — the hypothesis fingerprint — and a :class:`TheoryLemmaStore`
of unsat cores is shared by every context of one solver and survives both
LRU eviction and the periodic context resets that bound SAT-variable
growth: a model that re-enters a known core is blocked without re-running
the Nelson–Oppen theory check.

Soundness notes.  A theory blocking clause built from an unsat core is a
tautology of the combined theory, so asserting it *unguarded* is sound for
every later goal over the same atoms.  Learned clauses are resolvents of
database clauses (including goal clauses guarded by their selector), so they
are implied by the database; once a selector is retired with ``[-selector]``
every clause mentioning it is permanently satisfied and
:meth:`repro.smt.sat.SatSolver.compact` can drop it.  Theory checks are
restricted to the *active* atoms (hypotheses plus the current goal): retired
goals' atoms are unconstrained and would only enlarge cores.

Theory checks do not start from scratch either.  The hypothesis literals
that the SAT solver fixes at decision level 0 hold in every model of the
context, so the context keeps one :class:`repro.smt.theory.RootState` for
them: their congruence closure and LIA rows are built by the first theory
check and every later model adds only its other literals on top (see
:mod:`repro.smt.theory`).  A reset drops the root state with the SAT solver.

Refutations are not always searched for either.  Most goals of a batch are
candidate qualifiers the hypotheses do not imply, so when the theory loop
finds a model of ``hyps /\\ !goal`` it keeps that model
(:class:`repro.smt.model.TheoryModel`) in the batch's list, up to
:data:`MAX_MODELS`.  Each later goal of the batch is first evaluated under
the kept models: if one makes ``simplify(neg(goal))`` true, the goal is not
valid, with no Tseitin encoding, no SAT call and no theory check.  A model
is trusted only after the context's simplified hypotheses evaluate to true
under it; that check runs on the model's first use and again for any other
hypotheses, never from a cache, because it is what makes the model a model.
The list belongs to :meth:`repro.smt.solver.Solver.check_implication_batch`
and is dropped when the batch returns: no context or root state holds a
model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.logic.simplify import simplify
from repro.logic.terms import BoolLit, Expr, neg
from repro.smt.cnf import AtomMap, collect_atoms, to_nnf, tseitin
from repro.smt.model import TheoryModel
from repro.smt.sat import SatSolver
from repro.smt.theory import (ModelLiterals, RootState, TheoryLiteral,
                              check_with_core)
from repro.obs.trace import span as trace_span

#: Retire this many goals before compacting the clause database.
COMPACT_EVERY = 8

#: Reset (rebuild) a context once its SAT solver grows past this many
#: variables — full models must assign every variable, so an unbounded
#: context would make each ``solve()`` quadratically slower.  The theory
#: lemma memo outlives the reset.
RESET_VAR_LIMIT = 1200

#: Keep at most this many refuting models per implication batch.
MAX_MODELS = 4


class TheoryLemmaStore:
    """Unsat cores discovered by theory checks, shared across contexts.

    A core is a set of theory literals ``(atom, polarity)`` whose conjunction
    is theory-inconsistent.  The store indexes each core under a
    deterministic *key literal* so that :meth:`find` visits every candidate
    core at most once per lookup.
    """

    def __init__(self, limit: int = 50_000) -> None:
        self.limit = limit
        self._cores: List[FrozenSet[TheoryLiteral]] = []
        self._seen: Set[FrozenSet[TheoryLiteral]] = set()
        self._index: Dict[FrozenSet[TheoryLiteral], int] = {}
        self._by_key: Dict[TheoryLiteral, List[int]] = {}
        self._by_atom: Dict[Expr, List[int]] = {}

    def __len__(self) -> int:
        return len(self._cores)

    @staticmethod
    def _key_literal(core: FrozenSet[TheoryLiteral]) -> TheoryLiteral:
        return min(core, key=lambda lit: (str(lit[0]), lit[1]))

    def record(self, core: Sequence[TheoryLiteral]) -> Optional[int]:
        """Store a core; returns its index (existing index for duplicates,
        ``None`` once the store is full)."""
        lits = frozenset(core)
        if not lits:
            return None
        if lits in self._seen:
            return self._index[lits]
        if len(self._cores) >= self.limit:
            return None
        self._seen.add(lits)
        self._cores.append(lits)
        index = len(self._cores) - 1
        self._index[lits] = index
        self._by_key.setdefault(self._key_literal(lits), []).append(index)
        for atom, _polarity in lits:
            self._by_atom.setdefault(atom, []).append(index)
        return index

    def core_at(self, index: int) -> FrozenSet[TheoryLiteral]:
        return self._cores[index]

    def cores_mentioning(self, atom: Expr) -> Sequence[int]:
        """Indices of every recorded core that mentions ``atom``.

        Drives eager replay: a context that has just mapped ``atom`` checks
        these candidates, and asserts the blocking clause of any core whose
        atoms are now all mapped — the conflict is then never enumerated.
        """
        return self._by_atom.get(atom, ())

    def find(self, literals: FrozenSet[TheoryLiteral]) -> Optional[int]:
        """The index of a recorded core contained in ``literals``, or None.

        Any subset of ``literals`` has its key literal in ``literals``, so
        scanning the index rows of the given literals is exhaustive.
        """
        for lit in literals:
            for index in self._by_key.get(lit, ()):
                if self._cores[index] <= literals:
                    return index
        return None


class SolverContext:
    """A persistent SAT solver holding one hypothesis environment's CNF.

    Goals are checked with :meth:`check_goal`; the context may be reused for
    any number of goals (and is, by the fixpoint engine, across rounds).
    """

    def __init__(self, antecedent: Expr, lemmas: TheoryLemmaStore,
                 max_theory_iterations: int = 5000) -> None:
        self.antecedent = antecedent
        self.lemmas = lemmas
        self.max_theory_iterations = max_theory_iterations
        self.goals_checked = 0
        self.resets = 0
        self._env_result: Optional[bool] = None  # cached env satisfiability
        self._build()

    # -- construction / reset ------------------------------------------------

    def _build(self) -> None:
        self.atoms = AtomMap()
        self.sat = SatSolver()
        #: the part of ``sat``'s work counters already added to a stats
        self._sat_reported = (0, 0, 0)
        self._hyp_vars: Set[int] = set()
        self._retired = 0
        self._inconsistent = False
        #: lemma-store indices whose blocking clause this context asserted
        self._asserted_cores: Set[int] = set()
        self._assert_hypotheses()
        #: made by the first theory loop after each (re)build
        self._root: Optional[RootState] = None
        self._root_vars: Tuple[int, ...] = ()

    def _assert_hypotheses(self) -> None:
        antecedent = simplify(self.antecedent)
        #: what the SAT solver holds, and what a kept model must satisfy
        self.hypotheses = antecedent
        if isinstance(antecedent, BoolLit):
            self._inconsistent = not antecedent.value
            return
        nnf = to_nnf(antecedent, True)
        atoms_before = len(self.atoms.atom_to_var)
        clauses = tseitin(nnf, self.atoms)
        for clause in clauses:
            if not self.sat.add_clause(clause):
                self._inconsistent = True
                return
        self._hyp_vars = self._vars_of(nnf)
        self._replay_lemmas(atoms_before, None)

    def _reset(self) -> None:
        """Rebuild the SAT solver and the root theory state from the
        hypotheses alone.

        Bounds variable growth; the :class:`TheoryLemmaStore` (shared by
        all of the owning solver's contexts) re-supplies discovered theory
        conflicts on demand, so a reset costs SAT enumeration but never
        repeats a theory check.
        """
        self.resets += 1
        self._build()

    def root_state(self) -> RootState:
        """The theory state every model of this context shares: the
        hypothesis literals the SAT solver has fixed at decision level 0,
        plus the terms of the other hypothesis atoms (every model assigns
        them).  Made by the first theory loop after each (re)build; its
        first theory check builds it."""
        if self._root is None:
            fixed = {abs(lit): lit > 0 for lit in self.sat.fixed_literals()}
            root_vars: List[int] = []
            literals: List[TheoryLiteral] = []
            others: List[Expr] = []
            for var in sorted(self._hyp_vars):
                atom = self.atoms.atom_of(var)
                if atom is None:
                    continue
                if var in fixed:
                    root_vars.append(var)
                    literals.append((atom, fixed[var]))
                else:
                    others.append(atom)
            self._root = RootState(literals, others)
            self._root_vars = tuple(root_vars)
        return self._root

    def _vars_of(self, nnf: Expr) -> Set[int]:
        # collect_atoms is memoised per interned term, so repeat goals cost
        # one dict probe per (shared) atom here.
        get = self.atoms.atom_to_var.get
        return {var for var in map(get, collect_atoms(nnf))
                if var is not None}

    # -- queries -------------------------------------------------------------

    def check_goal(self, goal: Expr, stats,
                   models: Optional[List[TheoryModel]] = None
                   ) -> Optional[bool]:
        """Is ``antecedent => goal`` valid?  (UNSAT of ``antecedent /\\ !goal``.)

        Returns True (valid: the conjunction is unsat), False (not valid: a
        theory-consistent model exists), or ``None`` when the theory
        iteration budget ran out or Fourier–Motzkin gave up — the caller
        must treat that as *unknown* (not valid, but also not a cacheable
        "satisfiable" verdict).

        ``stats`` is the owning solver's :class:`SolverStats`; the context
        bumps ``sat_calls`` / ``theory_checks`` / ``blocking_clauses`` /
        ``lemmas_reused`` / ``clauses_learned`` exactly like the lazy loop of
        :meth:`Solver._check_sat`, and adds the SAT solver's work since the
        last goal (including the hypotheses' clauses, for the first) to the
        ``sat_*`` counters.

        ``models`` is the implication batch's list of kept models.  A goal
        whose negation one of them satisfies is answered False with no SAT
        call (``stats.model_refutations``); a goal the SAT loop refutes adds
        its model while the list is shorter than :data:`MAX_MODELS`.
        """
        try:
            return self._check_goal(goal, stats, models)
        finally:
            self._report_sat_work(stats)

    def _check_goal(self, goal: Expr, stats,
                    models: Optional[List[TheoryModel]]) -> Optional[bool]:
        self.goals_checked += 1
        if self._inconsistent:
            return True
        if self.sat.num_vars > RESET_VAR_LIMIT:
            self._report_sat_work(stats)
            self._reset()
            if self._inconsistent:
                return True
        negated = simplify(neg(goal))
        if isinstance(negated, BoolLit):
            if not negated.value:
                return True  # goal is trivially true under any environment
            # goal is trivially false: valid iff the environment is unsat
            env = self._env_satisfiable(stats)
            return None if env is None else not env
        if models:
            for model in models:
                if model.refutes(self.hypotheses, negated):
                    stats.model_refutations += 1
                    return False
        nnf = to_nnf(negated, True)
        atoms_before = len(self.atoms.atom_to_var)
        clauses = tseitin(nnf, self.atoms)
        active = self._hyp_vars | self._vars_of(nnf)
        selector = self.atoms.fresh_aux()
        self.sat.ensure_var(selector)
        for clause in clauses:
            if not self.sat.add_clause([-selector] + clause):
                # Root-level conflict without the selector assumed: the
                # environment itself became propositionally unsat.
                self._inconsistent = True
                return True
        self._replay_lemmas(atoms_before, stats)
        if self._inconsistent:
            return True
        if self.sat.propagate_probe((selector,)):
            # Retained clauses refute the goal by unit propagation alone —
            # no SAT search needed.  This is the steady-state fast path for
            # re-derivable obligations and the reason the contexts issue
            # fewer sat_calls than a fresh solver per query.
            self._retire(selector)
            return True
        learned_before = self.sat.num_learned
        try:
            unsat = self._theory_loop((selector,), active, stats, models)
        finally:
            stats.clauses_learned += self.sat.num_learned - learned_before
            self._retire(selector)
        if unsat is None:
            return None  # resource limit: unknown
        return unsat

    def _env_satisfiable(self, stats) -> Optional[bool]:
        """Satisfiability of the bare environment (no goal).

        ``None`` means the iteration budget ran out or the theory gave up —
        unknown, and not memoised so a later (cheaper-after-lemmas) attempt
        may still decide.
        """
        if self._env_result is None:
            learned_before = self.sat.num_learned
            unsat = self._theory_loop((), self._hyp_vars, stats)
            stats.clauses_learned += self.sat.num_learned - learned_before
            if unsat is None:
                return None
            if unsat:
                self._inconsistent = True
            self._env_result = not unsat
        return self._env_result

    # -- internals -----------------------------------------------------------

    def _report_sat_work(self, stats) -> None:
        """Add the SAT solver's decisions, conflicts and propagations since
        the last report to ``stats``."""
        sat = self.sat
        decisions, conflicts, propagations = self._sat_reported
        stats.sat_decisions += sat.num_decisions - decisions
        stats.sat_conflicts += sat.num_conflicts - conflicts
        stats.sat_propagations += sat.num_propagations - propagations
        self._sat_reported = (sat.num_decisions, sat.num_conflicts,
                              sat.num_propagations)

    def _replay_lemmas(self, atoms_before: int, stats) -> None:
        """Eagerly assert memoised theory lemmas that just became relevant.

        Called whenever new atoms were mapped into this context (hypothesis
        build, each goal encoding): any stored core whose atoms are now all
        mapped is blocked up front, so its conflict is never enumerated by
        the SAT search at all — this is where the incremental engine beats
        the fresh one on ``sat_calls``, and why the memo matters across both
        LRU eviction and context resets.

        A core only becomes fully mapped when its *last* atom is mapped, and
        that atom is new, so scanning the new atoms' index rows is complete.
        """
        all_atoms = list(self.atoms.atom_to_var)
        new_atoms = all_atoms[atoms_before:]
        mapped = self.atoms.atom_to_var
        for atom in new_atoms:
            for index in self.lemmas.cores_mentioning(atom):
                if index in self._asserted_cores:
                    continue
                core = self.lemmas.core_at(index)
                if not all(a in mapped for a, _pol in core):
                    continue
                if stats is not None:
                    stats.lemmas_reused += 1
                if not self._assert_core(index, core):
                    self._inconsistent = True
                    return

    def _assert_core(self, index: Optional[int],
                     core: FrozenSet[TheoryLiteral]) -> bool:
        """Permanently block a theory-inconsistent literal set.

        Theory lemmas hold under every goal, so the clause is unguarded and
        persists for the rest of the context's lifetime.  Returns False when
        the clause database became unsat at the root — the environment is
        theory-inconsistent.
        """
        if index is not None:
            self._asserted_cores.add(index)
        blocking: List[int] = []
        for atom, value in core:
            var = self.atoms.atom_to_var.get(atom)
            if var is None:
                continue
            blocking.append(-var if value else var)
        if not blocking:
            return True
        return self.sat.add_clause(blocking)

    def _theory_loop(self, assumptions: Tuple[int, ...], active: Set[int],
                     stats, models: Optional[List[TheoryModel]] = None
                     ) -> Optional[bool]:
        """The lazy CDCL(T) loop over the persistent solver.

        Returns True for UNSAT, False for SAT (a theory-consistent model
        exists; it is appended to ``models`` while there is room), None
        when the iteration budget runs out or the theory gives up.
        """
        root = self.root_state()
        root_vars = set(self._root_vars)  # kept as a tuple: it is smaller
        for _ in range(self.max_theory_iterations):
            stats.sat_calls += 1
            if not self.sat.solve(assumptions):
                return True
            values = self.sat.assignment()
            # The root's literals are fixed at level 0, so every model
            # holds them; only the rest is checked on top of the root.
            delta: List[TheoryLiteral] = []
            for var in active:
                if var in root_vars:
                    continue
                value = values[var]
                if value is None:
                    continue
                atom = self.atoms.atom_of(var)
                if atom is not None:
                    delta.append((atom, value))
            literals = ModelLiterals(root, delta)
            litset = frozenset(literals)
            index = self.lemmas.find(litset)
            if index is not None:
                # Memoised conflict (recorded by another context after this
                # one last mapped an atom): no theory check needed.
                stats.lemmas_reused += 1
                core = self.lemmas.core_at(index)
            else:
                stats.theory_checks += 1
                result = check_with_core(literals)
                stats.euf_terms_added += result.terms_added
                stats.linearize_calls += result.linearize_calls
                if result.satisfiable:
                    # A Fourier–Motzkin give-up is no model: unknown.
                    if result.gave_up:
                        return None
                    if models is not None and result.state is not None \
                            and len(models) < MAX_MODELS:
                        models.append(TheoryModel(*result.state))
                    return False
                core = frozenset(result.core or literals)
                index = self.lemmas.record(core)
            if not any(self.atoms.atom_to_var.get(atom) is not None
                       for atom, _value in core):
                # The conflict mentions no decidable atom; give up
                # conservatively (mirrors Solver._check_sat).
                return None
            stats.blocking_clauses += 1
            if not self._assert_core(index, core):
                return True
            if self.sat.propagate_probe(assumptions):
                # The new lemma refutes the goal by propagation alone — a
                # fresh solver per query detects the same situation as a root-level
                # conflict while inserting its blocking clause.
                return True
        return None

    def _retire(self, selector: int) -> None:
        """Permanently disable a goal's guarded clauses."""
        self.sat.add_clause([-selector])
        self._retired += 1
        if self._retired % COMPACT_EVERY == 0:
            self.sat.compact()


class ContextManager:
    """An LRU of :class:`SolverContext` objects keyed by environment.

    The key is the antecedent term itself: logic terms are hash-consed, so
    equal environments are one object and the term's identity hash is a
    precise environment fingerprint.  The theory-lemma store is shared
    across every context and survives eviction.
    """

    def __init__(self, limit: int = 64, max_theory_iterations: int = 5000,
                 lemmas: Optional[TheoryLemmaStore] = None) -> None:
        if limit < 1:
            raise ValueError("context cache limit must be positive")
        self.limit = limit
        self.max_theory_iterations = max_theory_iterations
        self.lemmas = lemmas if lemmas is not None else TheoryLemmaStore()
        self._contexts: "OrderedDict[Expr, SolverContext]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._contexts)

    def context_for(self, antecedent: Expr, stats) -> SolverContext:
        context = self._contexts.get(antecedent)
        if context is not None:
            self._contexts.move_to_end(antecedent)
            stats.contexts_reused += 1
            return context
        with trace_span("smt.context_build", "smt",
                        cached=len(self._contexts)):
            context = SolverContext(antecedent, self.lemmas,
                                    self.max_theory_iterations)
        stats.contexts_created += 1
        self._contexts[antecedent] = context
        while len(self._contexts) > self.limit:
            self._contexts.popitem(last=False)
        return context

    def clear(self) -> None:
        """Drop every context (the lemma store is kept)."""
        self._contexts.clear()
