"""A CDCL propositional SAT solver.

Literals are non-zero integers in DIMACS convention: variable ``v`` appears
positively as ``v`` and negatively as ``-v``.  The solver implements:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style decaying variable activities,
* non-chronological backjumping,
* incremental addition of clauses between ``solve()`` calls (used by the lazy
  SMT loop to add theory conflict clauses).

The formulas produced by refinement type checking are small (tens to a few
hundred variables), so the emphasis is on correctness and clarity rather than
raw throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


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
        # assignment[v] is True/False/None
        self._assign: Dict[int, Optional[bool]] = {}
        self._level: Dict[int, int] = {}
        self._reason: Dict[int, Optional[_Clause]] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: Dict[int, float] = {}
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
        self._assign[v] = None
        self._level[v] = 0
        self._reason[v] = None
        self._activity[v] = 0.0
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
        for lit in lits:
            self.ensure_var(abs(lit))
        # Remove duplicates; drop tautologies.
        seen = set()
        out: List[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology: always satisfied
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        # At top level we can discard falsified literals.
        if self._decision_level() == 0:
            out = [lit for lit in out if self._value(lit) is not False]
            if any(self._value(lit) is True for lit in out):
                return True
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
        # Clauses may be added between solve() calls (theory blocking clauses);
        # restart the search and make sure the watch invariant holds with
        # respect to the persistent level-0 assignment.
        if self._decision_level() != 0:
            self._backtrack(0)
        out.sort(key=lambda lit: 0 if self._value(lit) is not False else 1)
        clause = _Clause(out, learned)
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
        return {v: val for v, val in self._assign.items() if val is not None}

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
        val = self._assign.get(abs(lit))
        if val is None:
            return None
        return val if lit > 0 else (not val)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        v = abs(lit)
        self._assign[v] = lit > 0
        self._level[v] = self._decision_level()
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            v = abs(lit)
            self._assign[v] = None
            self._reason[v] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._prop_head = min(getattr(self, "_prop_head", 0), len(self._trail))

    def _watch(self, clause: _Clause) -> None:
        for lit in clause.lits[:2]:
            self._watches.setdefault(-lit, []).append(clause)

    def _propagate(self) -> Optional[_Clause]:
        head = getattr(self, "_prop_head", 0)
        while head < len(self._trail):
            lit = self._trail[head]
            head += 1
            self.num_propagations += 1
            watchers = self._watches.get(lit, [])
            self._watches[lit] = []
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                i += 1
                if not self._propagate_clause(clause, lit):
                    # Conflict: the conflicting clause already re-registered
                    # itself inside _propagate_clause, so only the watchers we
                    # have not visited yet need to be restored.
                    self._watches[lit].extend(watchers[i:])
                    self._prop_head = len(self._trail)
                    return clause
        self._prop_head = head
        return None

    def _propagate_clause(self, clause: _Clause, false_lit: int) -> bool:
        """Returns False on conflict. ``false_lit`` just became true, so
        ``-false_lit`` is the falsified watched literal."""
        lits = clause.lits
        # Ensure the falsified literal is at position 1.
        if lits[0] == -false_lit:
            lits[0], lits[1] = lits[1], lits[0]
        # If the other watch is already true, keep watching.
        if self._value(lits[0]) is True:
            self._watches.setdefault(false_lit, []).append(clause)
            return True
        # Look for a new literal to watch.
        for k in range(2, len(lits)):
            if self._value(lits[k]) is not False:
                lits[1], lits[k] = lits[k], lits[1]
                self._watches.setdefault(-lits[1], []).append(clause)
                return True
        # Clause is unit or conflicting.
        self._watches.setdefault(false_lit, []).append(clause)
        if self._value(lits[0]) is False:
            return False
        self._enqueue(lits[0], clause)
        return True

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
        best_v = None
        best_act = -1.0
        for v in range(1, self._num_vars + 1):
            if self._assign[v] is None and self._activity[v] > best_act:
                best_v = v
                best_act = self._activity[v]
        if best_v is None:
            return None
        return -best_v  # prefer False first: good for blocking-clause workloads

    def _bump_activity(self, v: int) -> None:
        self._activity[v] += self._act_inc
        if self._activity[v] > 1e100:
            for u in self._activity:
                self._activity[u] *= 1e-100
            self._act_inc *= 1e-100

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
