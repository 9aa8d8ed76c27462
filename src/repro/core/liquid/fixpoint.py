"""The liquid fixpoint solver.

Given the flattened implications produced by checking (some of whose goals or
hypotheses mention kappa occurrences), the solver

1. initialises every kappa to the conjunction of all candidate qualifiers
   instantiated over the kappa's scope variables (filtered by kind),
2. repeatedly picks an implication whose goal is a kappa occurrence and
   removes from that kappa's assignment every qualifier not implied by the
   hypotheses (with the current assignment substituted in), and
3. stops at a fixpoint, which is the strongest assignment consistent with the
   constraints (standard predicate-abstraction argument).

Scheduling is dependency-directed: the solver builds the kappa dependency
graph (an edge ``A -> B`` when kappa ``A`` occurs in a hypothesis of an
implication whose goal is kappa ``B``), condenses it into strongly connected
components, and schedules weakening in topological order of the
condensation.  An implication is only revisited when one of the kappas its
hypotheses mention actually changed, so stable regions of the constraint
graph are never re-queried.  Cheap pre-SMT pruning (syntactic tautologies
and syntactically inconsistent hypotheses) further cuts the validity
queries that reach the solver; the survivors are batched through
:meth:`repro.smt.solver.Solver.check_implication_batch` so the shared
antecedent is built once per visit.  Typed counters are recorded in a
:class:`repro.core.result.SolveStats` (``LiquidSolver.stats``).

The reference engine, a global-round loop that sweeps every Horn
implication each round, lives in ``tests/test_worklist.py``: it stands in
for :meth:`LiquidSolver._solve_worklist` there, and the worklist must
produce the identical solution with strictly fewer queries.

Implications with concrete goals are *not* used during solving; they are the
final verification conditions checked afterwards by the caller
(:meth:`LiquidSolver.check_concrete`, which reports typed
:class:`ObligationOutcome` objects carrying the failing implication's
``RSC-*`` diagnostic code and origin span).
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import DEFAULT_CODES, SourceSpan
from repro.logic.terms import (
    App,
    Expr,
    conj,
    conjuncts,
    neg,
    subterms,
    substitute,
)
from repro.node import Record, field
from repro.rtypes.types import is_kvar_app
from repro.smt.solver import Solver
from repro.core.cancel import CancelToken, checkpoint
from repro.core.constraints import Implication
from repro.core.liquid.qualifiers import QualifierPool
from repro.core.result import SolveStats
from repro.obs.trace import span as trace_span, tracer as _tracer

class KappaInfo(Record):
    """Metadata recorded when a kappa template is created.

    ``owner`` names the checkable unit (constraint partition) whose checking
    created the kappa; the incremental workspace uses it to decide which
    kappa assignments an edit invalidates.
    """

    name: str
    formals: List[str]                    # first formal is the value variable
    kinds: Dict[str, str] = field(default_factory=dict)   # formal -> kind
    owner: Optional[str] = None


class KappaRegistry:
    """All kappas created during a checking run."""

    def __init__(self) -> None:
        self.kappas: Dict[str, KappaInfo] = {}

    def register(self, name: str, formals: Sequence[str],
                 kinds: Optional[Dict[str, str]] = None,
                 owner: Optional[str] = None) -> None:
        self.kappas[name] = KappaInfo(name, list(formals), dict(kinds or {}),
                                      owner)

    def __contains__(self, name: str) -> bool:
        return name in self.kappas

    def info(self, name: str) -> KappaInfo:
        return self.kappas[name]

    def owners_of(self) -> Dict[str, Optional[str]]:
        """Kappa name -> owning partition (None for unowned kappas)."""
        return {name: info.owner for name, info in self.kappas.items()}


Solution = Dict[str, List[Expr]]


class ObligationOutcome(Record):
    """The verdict on one concrete implication under the kappa solution.

    Carries the implication itself so callers can report *which* obligation
    failed: :attr:`code` resolves the implication's ``RSC-*`` diagnostic code
    (falling back to the family default for its kind) and :attr:`span` is the
    origin span threaded from constraint generation.  Iterating yields
    ``(implication, ok)`` for callers written against the old tuple API.
    """

    implication: Implication
    ok: bool
    goal: Expr

    @property
    def code(self) -> str:
        return self.implication.code or DEFAULT_CODES[self.implication.kind]

    @property
    def span(self) -> SourceSpan:
        return self.implication.span

    def message(self) -> str:
        return self.implication.reason

    def __iter__(self) -> Iterator:
        yield self.implication
        yield self.ok


# ---------------------------------------------------------------------------
# kappa dependency graph
# ---------------------------------------------------------------------------


def kappa_occurrences(expr: Expr) -> Set[str]:
    """Names of every kappa occurring anywhere in ``expr``."""
    return {sub.fn for sub in subterms(expr)
            if is_kvar_app(sub) and isinstance(sub, App)}


def build_dependency_graph(implications: Sequence[Implication]
                           ) -> Dict[str, Set[str]]:
    """The kappa dependency graph as an adjacency map ``A -> {B, ...}``.

    There is an edge ``A -> B`` when kappa ``A`` occurs in a hypothesis of an
    implication whose goal is kappa ``B`` — weakening ``A`` weakens that
    hypothesis, so ``B`` may need to be weakened in turn.  Every kappa
    mentioned by any implication appears as a node (possibly isolated).
    """
    graph: Dict[str, Set[str]] = {}
    for imp in implications:
        if not (is_kvar_app(imp.goal) and isinstance(imp.goal, App)):
            continue
        goal_name = imp.goal.fn
        graph.setdefault(goal_name, set())
        for hyp in imp.hyps:
            for dep in kappa_occurrences(hyp):
                graph.setdefault(dep, set()).add(goal_name)
    return graph


def scc_ranks(graph: Dict[str, Set[str]]) -> Tuple[Dict[str, int], int]:
    """Condense ``graph`` into SCCs and rank them topologically.

    Returns ``(rank, count)`` where ``rank[node]`` is the topological index
    of the node's SCC in the condensation (sources first: if ``A -> B`` and
    the two are in different components, ``rank[A] < rank[B]``) and ``count``
    is the number of components.  Tarjan's algorithm, iterative so deep
    chains of kappas cannot hit the recursion limit.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    # Tarjan emits components in reverse topological order of the
    # condensation, so the rank is the emission index flipped.
    count = len(sccs)
    rank: Dict[str, int] = {}
    for emitted, component in enumerate(sccs):
        for node in component:
            rank[node] = count - 1 - emitted
    return rank, count


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

#: Candidate classifications inside a visit.
_KEEP, _QUERY = 0, 1


class LiquidSolver:
    def __init__(self, solver: Solver, pool: QualifierPool,
                 registry: KappaRegistry, max_iterations: int = 40) -> None:
        self.solver = solver
        self.pool = pool
        self.registry = registry
        self.max_iterations = max_iterations
        self.stats = SolveStats()
        self._cancel: Optional[CancelToken] = None

    # -- solution application ---------------------------------------------------------

    def apply(self, expr: Expr, solution: Solution) -> Expr:
        """Replace every kappa occurrence in ``expr`` by its current solution."""
        replaced = expr
        for sub in list(subterms(expr)):
            if is_kvar_app(sub) and isinstance(sub, App):
                instantiated = self.instantiate(sub, solution)
                replaced = _replace_subterm(replaced, sub, instantiated)
        return replaced

    def instantiate(self, occurrence: App, solution: Solution) -> Expr:
        name = occurrence.fn
        if name not in self.registry:
            return conj()
        info = self.registry.info(name)
        quals = solution.get(name, [])
        mapping = _occurrence_subst(info, occurrence)
        return conj(*[substitute(q, mapping) for q in quals])

    # -- solving ----------------------------------------------------------------------

    def initial_solution(self) -> Solution:
        solution: Solution = {}
        for name in self.registry.kappas:
            solution[name] = self._initial_candidates(name)
        return solution

    def _initial_candidates(self, name: str) -> List[Expr]:
        """The strongest starting assignment for one kappa: every pool
        qualifier instantiated over its scope."""
        info = self.registry.info(name)
        candidates = {formal: info.kinds.get(formal, "any")
                      for formal in info.formals[1:]}
        return self.pool.instantiate(candidates)

    def warm_solution(self, previous: Solution,
                      dirty_kappas: Set[str]) -> Solution:
        """The warm starting assignment: previous values for clean kappas,
        the strongest (pool-instantiated) assignment for dirty ones.

        Sound — i.e. converging to the same fixpoint a cold solve would —
        exactly when every clean kappa's constraints are unchanged and no
        implication mixes kappas from clean and dirty partitions; the
        workspace verifies both before requesting a warm start.
        """
        solution: Solution = {}
        for name in self.registry.kappas:
            if name in previous and name not in dirty_kappas:
                solution[name] = list(previous[name])
            else:
                solution[name] = self._initial_candidates(name)
        return solution

    def solve(self, implications: Sequence[Implication],
              previous: Optional[Solution] = None,
              dirty_kappas: Optional[Set[str]] = None,
              cancel: Optional[CancelToken] = None) -> Solution:
        """Solve the Horn implications for the strongest kappa assignment.

        With ``previous`` and ``dirty_kappas`` given, the solve is *warm-started*: clean kappas begin at their
        previous fixpoint values and the worklist is seeded with only the
        implications constraining dirty kappas — everything else is reached
        through the dependency graph if (and only if) a weakening actually
        propagates to it.

        A ``cancel`` token is polled between scheduler steps; when it fires
        the solve raises :class:`repro.core.cancel.CheckCancelled` (the
        partial solution is discarded by the caller).
        """
        self.stats = SolveStats()
        self._cancel = cancel
        with trace_span("fixpoint.solve", "fixpoint") as sp:
            warm = previous is not None and dirty_kappas is not None
            if warm:
                solution = self.warm_solution(previous, dirty_kappas)
                self.stats.warm_starts = 1
            else:
                solution = self.initial_solution()
            horn = [imp for imp in implications
                    if self._goal_kappa(imp) is not None
                    and self._goal_kappa(imp).fn in self.registry]
            self.stats.kappas = len(self.registry.kappas)
            self.stats.horn_implications = len(horn)
            solver_before = self.solver.stats.copy()
            self._solve_worklist(horn, solution,
                                 seed_kappas=dirty_kappas if warm else None)
            solver_delta = self.solver.stats.delta_since(solver_before)
            self.stats.cache_hits = solver_delta.cache_hits
            self.stats.contexts_created = solver_delta.contexts_created
            self.stats.contexts_reused = solver_delta.contexts_reused
            self.stats.clauses_learned = solver_delta.clauses_learned
            self.stats.lemmas_reused = solver_delta.lemmas_reused
            sp.note(kappas=self.stats.kappas,
                    horn=self.stats.horn_implications,
                    rounds=self.stats.rounds,
                    queries=self.stats.queries_issued)
        return solution

    def _solve_worklist(self, horn: Sequence[Implication],
                        solution: Solution,
                        seed_kappas: Optional[Set[str]] = None) -> None:
        """Dependency-directed weakening in SCC-topological order.

        The schedule proceeds in rounds: each round visits, in topological
        rank order of the goal kappa's SCC, exactly the implications whose
        hypothesis kappas changed since their last visit (the first round
        visits everything).  Changes discovered mid-round are picked up by
        later visits in the same round; implications already behind the
        cursor are deferred to the next round.  Compared with scheduling
        each change individually this batches weakenings, so a revisited
        implication sees one consolidated new hypothesis state instead of a
        fresh SMT formula per predecessor change — and unlike a global-round
        sweep, implications whose dependencies are stable are never
        reconsidered and no final confirmation sweep is needed.

        ``seed_kappas`` restricts the *initial* worklist to implications
        whose goal or hypotheses mention one of the named kappas (warm
        start); the watcher propagation then pulls in downstream
        implications exactly as for any other weakening.
        """
        graph = build_dependency_graph(horn)
        rank, scc_count = scc_ranks(graph)
        self.stats.sccs = scc_count

        # kappa name -> indices of implications whose hypotheses mention it
        # (the implications to revisit when that kappa weakens).
        goal_of: List[str] = []
        hyp_deps: List[Set[str]] = []
        watchers: Dict[str, Set[int]] = {}
        for idx, imp in enumerate(horn):
            occurrence = self._goal_kappa(imp)
            assert occurrence is not None
            goal_of.append(occurrence.fn)
            deps: Set[str] = set()
            for hyp in imp.hyps:
                deps.update(kappa_occurrences(hyp))
            hyp_deps.append(deps)
            for dep in deps:
                watchers.setdefault(dep, set()).add(idx)

        def priority(idx: int) -> Tuple[int, int]:
            return (rank.get(goal_of[idx], 0), idx)

        budget = self.max_iterations * max(1, len(horn))
        initial = range(len(horn))
        if seed_kappas is not None:
            initial = [idx for idx, imp in enumerate(horn)
                       if goal_of[idx] in seed_kappas
                       or hyp_deps[idx] & seed_kappas]
        current = sorted(initial, key=priority)
        sweep = 0
        while current and self.stats.rounds < budget:
            position = {idx: pos for pos, idx in enumerate(current)}
            dirty: Set[int] = set()
            with trace_span("fixpoint.round", "fixpoint",
                            round=sweep, batch=len(current)):
                for pos, idx in enumerate(current):
                    if self.stats.rounds >= budget:
                        break
                    checkpoint(self._cancel)
                    self.stats.rounds += 1
                    if not self._visit(horn[idx], solution):
                        continue
                    for watcher in watchers.get(goal_of[idx], ()):
                        # a watcher still ahead of the cursor this round
                        # will observe the change anyway; everything else
                        # is deferred
                        if position.get(watcher, -1) <= pos:
                            dirty.add(watcher)
            current = sorted(dirty, key=priority)
            sweep += 1

    def _visit(self, imp: Implication, solution: Solution) -> bool:
        """Weaken the goal kappa of ``imp``; True iff its assignment shrank."""
        occurrence = self._goal_kappa(imp)
        assert occurrence is not None
        name = occurrence.fn
        quals = solution.get(name, [])
        if not quals:
            return False
        info = self.registry.info(name)
        mapping = _occurrence_subst(info, occurrence)
        hyps = [self.apply(h, solution) for h in imp.hyps]
        atoms = [atom for hyp in hyps for atom in conjuncts(hyp)]
        hyp_atoms = set(atoms)
        vacuous = _syntactically_inconsistent(atoms, hyp_atoms)

        # Classify each candidate before touching the SMT solver: keep
        # syntactic tautologies for free and gather the rest for one
        # batched round of validity queries.
        decisions: List[int] = []
        pending_goals: List[Expr] = []
        for qual in quals:
            goal = substitute(qual, mapping)
            if vacuous or goal.is_true() or goal in hyp_atoms:
                decisions.append(_KEEP)
                self.stats.queries_pruned += 1
                continue
            decisions.append(_QUERY)
            pending_goals.append(goal)

        verdicts: List[bool] = []
        if pending_goals:
            t = _tracer()
            if t.enabled:
                solver_stats = self.solver.stats
                refuted_before = solver_stats.model_refutations
                start_ns = time.perf_counter_ns()
                verdicts = self.solver.check_implication_batch(
                    hyps, pending_goals)
                elapsed_ns = time.perf_counter_ns() - start_ns
                t.emit("fixpoint.batch", "fixpoint", start_ns, elapsed_ns,
                       {"kappa": name, "goals": len(pending_goals),
                        "model_refuted": solver_stats.model_refutations
                        - refuted_before})
                t.slow.record(elapsed_ns / 1e9, kind="batch", kappa=name,
                              owner=info.owner, goals=len(pending_goals))
            else:
                verdicts = self.solver.check_implication_batch(
                    hyps, pending_goals)
            self.stats.queries_issued += len(pending_goals)

        answers = iter(verdicts)
        kept = [qual for qual, decision in zip(quals, decisions)
                if decision == _KEEP or next(answers)]
        if len(kept) == len(quals):
            return False
        solution[name] = kept
        return True

    def check_concrete(self, implications: Sequence[Implication],
                       solution: Solution,
                       cancel: Optional[CancelToken] = None
                       ) -> List[ObligationOutcome]:
        """Check every implication with a concrete goal under the solution."""
        results: List[ObligationOutcome] = []
        t = _tracer()
        for imp in implications:
            if self._goal_kappa(imp) is not None:
                continue
            checkpoint(cancel)
            hyps = [self.apply(h, solution) for h in imp.hyps]
            goal = self.apply(imp.goal, solution)
            if t.enabled:
                start_ns = time.perf_counter_ns()
                ok = self.solver.check_implication(hyps, goal)
                elapsed_ns = time.perf_counter_ns() - start_ns
                t.slow.record(elapsed_ns / 1e9, kind="concrete",
                              owner=imp.owner, goals=1)
            else:
                ok = self.solver.check_implication(hyps, goal)
            results.append(ObligationOutcome(imp, ok, goal))
        return results

    @staticmethod
    def _goal_kappa(imp: Implication) -> Optional[App]:
        if is_kvar_app(imp.goal) and isinstance(imp.goal, App):
            return imp.goal
        return None


def _syntactically_inconsistent(atoms: Sequence[Expr],
                                present: Set[Expr]) -> bool:
    """True when the hypothesis conjuncts ``atoms`` (``present`` as a set)
    are contradictory by syntax alone (a literal ``false``, or some atom
    alongside its negation) — every goal then follows vacuously without
    consulting the solver.  The atoms are scanned in conjunct order, not in
    set order: terms hash by address, so where the scan stops, and with it
    how many terms ``neg`` builds, would otherwise vary from run to run."""
    for atom in atoms:
        if atom.is_false():
            return True
        if neg(atom) in present:
            return True
    return False


def _occurrence_subst(info: KappaInfo, occurrence: App) -> Dict[str, Expr]:
    """The pending substitution carried by a kappa occurrence."""
    mapping: Dict[str, Expr] = {}
    for formal, actual in zip(info.formals, occurrence.args):
        mapping[formal] = actual
    return mapping


def _replace_subterm(expr: Expr, old: Expr, new: Expr) -> Expr:
    from repro.logic.terms import subst_term
    return subst_term(expr, old, new)
