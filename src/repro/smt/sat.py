"""A CDCL propositional SAT solver.

Literals are non-zero integers in DIMACS convention: variable ``v`` appears
positively as ``v`` and negatively as ``-v``.  The solver implements:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style decaying variable activities, with the branching variable
  taken from a lazy max-heap (highest activity, then lowest variable),
* non-chronological backjumping,
* incremental addition of clauses between ``solve()`` calls (used by the lazy
  SMT loop to add theory conflict clauses).

The formulas produced by refinement type checking are small (tens to about
a thousand variables), and every step runs in the interpreter, so the
per-variable state (assignment, level, reason, activity) lives in lists
indexed by variable and the propagation loop evaluates literals inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The branching heap is rebuilt once it holds this many entries per
#: variable: stale entries (older activities, assigned variables) are only
#: dropped lazily when they reach the top.
HEAP_SLACK = 4


@dataclass
class _Clause:
    lits: List[int]
    learned: bool = False


class SatSolver:
    """A CDCL SAT solver over integer literals."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._watches: Dict[int, List[_Clause]] = {}
        # Per-variable state, indexed by variable (slot 0 is unused).
        # assign[v] is True/False/None.
        self._assign: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        #: ``(-activity, var)`` entries; every unassigned variable has one
        #: carrying its current activity, other entries are stale.  Pushed
        #: by new_var and _backtrack, rebuilt on a rescale or past
        #: ``HEAP_SLACK`` entries per variable.
        self._heap: List[Tuple[float, int]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._prop_head = 0
        self._act_inc = 1.0
        self._act_decay = 0.95
        self._ok = True
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_learned = 0

    # -- public API ---------------------------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        v = self._num_vars
        self._assign.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        heappush(self._heap, (-0.0, v))
        return v

    def ensure_var(self, v: int) -> None:
        while self._num_vars < v:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, lits: Sequence[int], learned: bool = False) -> bool:
        """Add a clause; returns False if the formula became trivially unsat."""
        if not self._ok:
            return False
        if lits:
            top = max(map(abs, lits))
            if top > self._num_vars:
                self.ensure_var(top)
        # Remove duplicates; drop tautologies.
        out = list(dict.fromkeys(lits))
        if len(out) > 1:
            present = set(out)
            if any(-lit in present for lit in out):
                return True  # tautology: always satisfied
        root = not self._trail_lim
        if root:
            # At top level we can discard falsified literals; a true one
            # satisfies the clause for good.
            assign = self._assign
            unassigned: List[int] = []
            for lit in out:
                val = assign[lit] if lit > 0 else assign[-lit]
                if val is None:
                    unassigned.append(lit)
                elif val is (lit > 0):
                    return True
            out = unassigned
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if self._decision_level() != 0:
                self._backtrack(0)
            if self._value(out[0]) is False:
                self._ok = False
                return False
            if self._value(out[0]) is None:
                self._enqueue(out[0], None)
                conflict = self._propagate()
                if conflict is not None:
                    self._ok = False
                    return False
            return True
        clause = _Clause(out, learned)
        if root:
            # Every remaining literal is unassigned: watch the first two.
            self._clauses.append(clause)
            self._watch(clause)
            return True
        # Clauses may be added between solve() calls (theory blocking clauses);
        # restart the search and make sure the watch invariant holds with
        # respect to the persistent level-0 assignment.
        self._backtrack(0)
        out.sort(key=lambda lit: 0 if self._value(lit) is not False else 1)
        if self._value(out[0]) is False:
            # every literal is already false at the root level
            self._ok = False
            return False
        if self._value(out[1]) is False:
            # unit under the root-level assignment
            self._clauses.append(clause)
            self._watch(clause)
            if self._value(out[0]) is None:
                self._enqueue(out[0], clause)
                conflict = self._propagate()
                if conflict is not None:
                    self._ok = False
                    return False
            return True
        self._clauses.append(clause)
        self._watch(clause)
        return True

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Return True iff the clause set (plus assumptions) is satisfiable."""
        if not self._ok:
            return False
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            return False
        # Push assumptions as decisions.
        for a in assumptions:
            self.ensure_var(abs(a))
            if self._value(a) is False:
                return False
            if self._value(a) is None:
                self._new_decision_level()
                self._enqueue(a, None)
                conflict = self._propagate()
                if conflict is not None:
                    return False
        base_level = self._decision_level()
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.num_conflicts += 1
                if self._decision_level() <= base_level:
                    self._backtrack(0)
                    return False
                learned, back_level = self._analyze(conflict)
                self.num_learned += 1
                back_level = max(back_level, base_level)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], None)
                    elif self._value(learned[0]) is False:
                        self._backtrack(0)
                        return False
                else:
                    clause = _Clause(list(learned), learned=True)
                    self._clauses.append(clause)
                    self._watch(clause)
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], clause)
                self._decay_activities()
            else:
                lit = self._pick_branch()
                if lit is None:
                    return True  # full assignment
                self.num_decisions += 1
                self._new_decision_level()
                self._enqueue(lit, None)

    def propagate_probe(self, assumptions: Sequence[int] = ()) -> bool:
        """Unit-propagation-only unsatisfiability probe (no search).

        Returns True when the clause set plus ``assumptions`` is refuted by
        unit propagation alone — a decision-free conflict.  Returns False
        when propagation completes without conflict, which says nothing
        about satisfiability.  The incremental context layer uses this to
        discharge goals whose refutation is already propagation-evident
        from retained lemmas, without starting a SAT search.
        """
        if not self._ok:
            return True
        self._backtrack(0)
        if self._propagate() is not None:
            return True
        for a in assumptions:
            self.ensure_var(abs(a))
            if self._value(a) is False:
                self._backtrack(0)
                return True
            if self._value(a) is None:
                self._new_decision_level()
                self._enqueue(a, None)
                if self._propagate() is not None:
                    self._backtrack(0)
                    return True
        self._backtrack(0)
        return False

    def fixed_literals(self) -> List[int]:
        """The literals assigned at decision level 0, in trail order.

        They hold in every model of the current clause set: clauses added
        later can only extend this prefix of the trail (or make the solver
        unsatisfiable), and no search ever retracts it."""
        end = self._trail_lim[0] if self._trail_lim else len(self._trail)
        return self._trail[:end]

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last successful solve()."""
        return {v: val for v, val in enumerate(self._assign)
                if val is not None}

    def assignment(self) -> Sequence[Optional[bool]]:
        """The current value of every variable, indexed by variable (a live
        read-only view: after a successful solve() it is the model).  Lets a
        caller read a few variables without building :meth:`model`."""
        return self._assign

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def compact(self) -> int:
        """Drop clauses that are permanently satisfied at the root level.

        Long-lived solvers (the incremental context layer) retire a goal by
        asserting its selector's negation as a root-level unit, which
        permanently satisfies every clause guarded by that selector —
        including CDCL-learned clauses that mention it.  Compaction removes
        them and rebuilds the watch lists; returns the number removed.
        """
        if not self._ok:
            return 0
        self._backtrack(0)

        def rooted_true(lit: int) -> bool:
            return self._value(lit) is True and self._level[abs(lit)] == 0

        kept: List[_Clause] = []
        removed = 0
        for clause in self._clauses:
            if any(rooted_true(lit) for lit in clause.lits):
                removed += 1
            else:
                kept.append(clause)
        if not removed:
            return 0
        self._clauses = kept
        self._watches = {}
        for clause in kept:
            # Re-establish the watch invariant under the root assignment:
            # watch two non-false literals whenever they exist.
            clause.lits.sort(
                key=lambda lit: 0 if self._value(lit) is not False else 1)
            if self._value(clause.lits[0]) is False:
                self._ok = False  # whole clause false at root
                return removed
            self._watch(clause)
            if len(clause.lits) > 1 and self._value(clause.lits[1]) is False \
                    and self._value(clause.lits[0]) is None:
                # Unit under the root assignment (cannot normally happen —
                # root propagation ran before compaction — but keep the
                # solver consistent regardless).
                self._enqueue(clause.lits[0], clause)
        if self._propagate() is not None:
            self._ok = False
        return removed

    # -- internals ----------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        if lit > 0:
            return self._assign[lit]
        val = self._assign[-lit]
        return None if val is None else not val

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        v = lit if lit > 0 else -lit
        self._assign[v] = lit > 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        limit = trail_lim[level]
        assign, reason = self._assign, self._reason
        activity, heap = self._activity, self._heap
        for index in range(limit, len(trail)):
            lit = trail[index]
            v = lit if lit > 0 else -lit
            assign[v] = None
            reason[v] = None
            heappush(heap, (-activity[v], v))
        del trail[limit:]
        del trail_lim[level:]
        if self._prop_head > limit:
            self._prop_head = limit
        if len(heap) > HEAP_SLACK * self._num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        assign, activity = self._assign, self._activity
        heap = [(-activity[v], v) for v in range(1, self._num_vars + 1)
                if assign[v] is None]
        heapify(heap)
        self._heap = heap

    def _watch(self, clause: _Clause) -> None:
        for lit in clause.lits[:2]:
            self._watches.setdefault(-lit, []).append(clause)

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation from ``_prop_head``; returns a conflicting
        clause or None.  Each watcher of a literal that just became true
        watches its negation: the clause keeps that watch when its other
        watch is true, moves it to a non-false literal when there is one,
        and is otherwise unit (its other watch is enqueued) or conflicting.
        """
        trail = self._trail
        watches = self._watches
        assign, level_of, reason = self._assign, self._level, self._reason
        level = len(self._trail_lim)
        head = self._prop_head
        propagated = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            propagated += 1
            false_lit = -lit
            watchers = watches.get(lit)
            if not watchers:
                continue
            kept: List[_Clause] = []
            watches[lit] = kept
            for i, clause in enumerate(watchers):
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                # If the other watch is already true, keep watching.
                val = assign[first] if first > 0 else assign[-first]
                if val is not None and val is (first > 0):
                    kept.append(clause)
                    continue
                # Look for a new literal to watch.
                for k in range(2, len(lits)):
                    other = lits[k]
                    other_val = assign[other] if other > 0 else assign[-other]
                    if other_val is None or other_val is (other > 0):
                        lits[1], lits[k] = other, lits[1]
                        key = -other
                        moved = watches.get(key)
                        if moved is None:
                            watches[key] = [clause]
                        else:
                            moved.append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(clause)
                    if val is not None:
                        # Conflict: the unvisited watchers stay registered.
                        kept.extend(watchers[i + 1:])
                        self._prop_head = len(trail)
                        self.num_propagations += propagated
                        return clause
                    v = first if first > 0 else -first
                    assign[v] = first > 0
                    level_of[v] = level
                    reason[v] = clause
                    trail.append(first)
        self._prop_head = head
        self.num_propagations += propagated
        return None

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level).

        The learned clause has the asserting literal in position 0."""
        learned: List[int] = []
        seen: set[int] = set()
        counter = 0
        lit_to_resolve: Optional[int] = None
        clause: Optional[_Clause] = conflict
        trail_index = len(self._trail) - 1
        cur_level = self._decision_level()

        while True:
            assert clause is not None
            for lit in clause.lits:
                if lit_to_resolve is not None and lit == lit_to_resolve:
                    continue
                v = abs(lit)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                self._bump_activity(v)
                if self._level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal on the trail to resolve on.
            while trail_index >= 0 and abs(self._trail[trail_index]) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            resolved_lit = self._trail[trail_index]
            v = abs(resolved_lit)
            seen.discard(v)
            trail_index -= 1
            counter -= 1
            if counter <= 0:
                learned.insert(0, -resolved_lit)
                break
            clause = self._reason[v]
            lit_to_resolve = resolved_lit
            if clause is None:
                # Decision literal reached without UIP (shouldn't happen);
                # learn the decision negation.
                learned.insert(0, -resolved_lit)
                break

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        levels = sorted((self._level[abs(l)] for l in learned[1:]), reverse=True)
        back_level = levels[0] if levels else 0
        # Put a literal from back_level at position 1 (watch invariant).
        for idx in range(1, len(learned)):
            if self._level[abs(learned[idx])] == back_level:
                learned[1], learned[idx] = learned[idx], learned[1]
                break
        return learned, back_level

    def _pick_branch(self) -> Optional[int]:
        """The negation of the unassigned variable with the highest
        activity (the lowest such variable on ties), or None when every
        variable is assigned."""
        heap, assign, activity = self._heap, self._assign, self._activity
        while heap:
            neg_act, v = heappop(heap)
            if assign[v] is None and -neg_act == activity[v]:
                # The caller assigns it; backtracking pushes it again.
                return -v  # prefer False first: good for blocking clauses
        return None

    def _bump_activity(self, v: int) -> None:
        # Only conflict analysis bumps, and only assigned variables: their
        # heap entries are pushed when backtracking unassigns them.
        activity = self._activity
        activity[v] += self._act_inc
        if activity[v] > 1e100:
            for u in range(1, self._num_vars + 1):
                activity[u] *= 1e-100
            self._act_inc *= 1e-100
            self._rebuild_heap()

    def _decay_activities(self) -> None:
        self._act_inc /= self._act_decay


def solve_cnf(clauses: Iterable[Sequence[int]]) -> Optional[Dict[int, bool]]:
    """Convenience helper: solve a CNF given as an iterable of literal lists.

    Returns a model (variable -> bool) or ``None`` if unsatisfiable.
    """
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(list(clause))
    if solver.solve():
        return solver.model()
    return None
