"""Congruence closure with explanations for equality with uninterpreted
functions (EUF).

The algorithm is the proof-forest congruence closure of Nieuwenhuis &
Oliveras, "Fast congruence closure and extensions" (2007):

* every ground term appearing in the literal set becomes a node,
* asserted equalities merge equivalence classes; each class keeps its member
  list, and the smaller class is relabelled into the larger, so ``find`` is
  a single array lookup,
* the congruence rule (equal arguments imply equal applications) is applied
  to fixpoint through a signature table and per-class use lists,
* distinct literals (integer, boolean and string constants) act as pairwise
  distinct constants — every class records the one constant node it holds,
  and merging two classes with different constants is a conflict,
* asserted disequalities are checked after every merge.

Every merge also adds one edge to a *proof forest*, labelled with its reason:
the bit of the input literal that asserted it, or the pair of applications
that became congruent.  :meth:`CongruenceClosure.explain` walks the forest to
return the input literals behind ``a = b`` as a bitmask (bit ``i`` stands for
literal ``i``), expanding congruence edges into explanations of their
arguments.  A conflict carries its own explanation in
:attr:`CongruenceClosure.conflict`, so the caller gets an unsat core without
re-solving.

The class also exposes the discovered equivalence classes so that the LIA and
bit-mask theories can canonicalise their terms by EUF representative (a poor
man's Nelson–Oppen equality propagation, sufficient for RSC's VCs).

:meth:`CongruenceClosure.copy` snapshots a closure so that the theory layer
can build the closure of a hypothesis environment once and assert each SAT
model's remaining literals on a copy (see :mod:`repro.smt.theory`).  Merges
never rewrite the proof-forest path between two nodes that are already in
one class, so an explanation computed on the snapshot stays valid on every
copy whose class of that node was neither relabelled nor given a constant;
:meth:`CongruenceClosure.class_unchanged` is how the theory layer tells.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    Field,
    IntLit,
    Ite,
    StrLit,
    UnOp,
    Var,
    children,
)

#: Why two nodes were merged: the bit of an input literal (0 for an
#: assertion that stands for no literal), or the two congruent applications.
Reason = Union[int, Tuple[int, int]]

_CONSTANTS = (IntLit, BoolLit, StrLit)


class CongruenceClosure:
    """Incremental congruence closure over ground terms, with explanations."""

    def __init__(self) -> None:
        self._ids: Dict[Expr, int] = {}
        self._terms: List[Expr] = []
        #: class representative of every node
        self._rep: List[int] = []
        #: members of every class, indexed by representative
        self._members: List[List[int]] = []
        #: the constant node of every class, indexed by representative
        self._const: List[Optional[int]] = []
        #: applications with an argument in the class, by representative
        self._use: List[List[int]] = []
        #: signature table: (label, child representatives) -> node id
        self._sig: Dict[Tuple[object, Tuple[int, ...]], int] = {}
        self._children: List[Tuple[int, ...]] = []
        self._labels: List[object] = []
        #: proof forest: the edge out of every node and its reason
        self._proof: List[int] = []
        self._reason: List[Reason] = []
        #: asserted disequalities as (node, node, literal bit)
        self._diseqs: List[Tuple[int, int, int]] = []
        #: bitmask of the input literals behind the conflict, if any
        self.conflict: Optional[int] = None
        #: nodes :meth:`add_term` created in this instance (a copy starts
        #: from 0)
        self.terms_added = 0

    def copy(self) -> "CongruenceClosure":
        """An independent closure in the same state; later assertions on
        either one leave the other untouched."""
        other = object.__new__(CongruenceClosure)
        other._ids = dict(self._ids)
        other._terms = list(self._terms)
        other._rep = list(self._rep)
        other._members = [list(members) for members in self._members]
        other._const = list(self._const)
        other._use = [list(parents) for parents in self._use]
        other._sig = dict(self._sig)
        other._children = list(self._children)
        other._labels = list(self._labels)
        other._proof = list(self._proof)
        other._reason = list(self._reason)
        other._diseqs = list(self._diseqs)
        other.conflict = self.conflict
        other.terms_added = 0
        return other

    # -- term registration --------------------------------------------------

    def add_term(self, e: Expr) -> int:
        """Register ``e`` (and all its subterms); return its node id."""
        node = self._ids.get(e)
        if node is not None:
            return node
        child_ids = tuple(self.add_term(c) for c in children(e))
        node = len(self._terms)
        self.terms_added += 1
        self._ids[e] = node
        self._terms.append(e)
        self._rep.append(node)
        self._members.append([node])
        self._const.append(node if isinstance(e, _CONSTANTS) else None)
        self._use.append([])
        self._children.append(child_ids)
        self._labels.append(self._label(e))
        self._proof.append(node)
        self._reason.append(0)
        for c in child_ids:
            self._use[self._rep[c]].append(node)
        if child_ids or isinstance(e, (App, Field)):
            sig = self._signature(node)
            existing = self._sig.get(sig)
            if existing is None:
                self._sig[sig] = node
            else:
                self._merge(existing, node, (existing, node))
        return node

    @staticmethod
    def _label(e: Expr) -> object:
        if isinstance(e, Var):
            return ("var", e.name)
        if isinstance(e, IntLit):
            return ("int", e.value)
        if isinstance(e, BoolLit):
            return ("bool", e.value)
        if isinstance(e, StrLit):
            return ("str", e.value)
        if isinstance(e, App):
            return ("app", e.fn)
        if isinstance(e, Field):
            return ("field", e.name)
        if isinstance(e, BinOp):
            return ("binop", e.op)
        if isinstance(e, UnOp):
            return ("unop", e.op)
        if isinstance(e, Ite):
            return ("ite",)
        return ("opaque", repr(e))

    def _signature(self, node: int) -> Tuple[object, Tuple[int, ...]]:
        rep = self._rep
        return self._labels[node], tuple(rep[c] for c in self._children[node])

    # -- assertions ----------------------------------------------------------

    def assert_eq(self, a: Expr, b: Expr, reason: int = 0) -> None:
        """Assert ``a = b``; ``reason`` is the literal's bit (0: none)."""
        if self.conflict is not None:
            return
        na, nb = self.add_term(a), self.add_term(b)
        if self.conflict is None:
            self._merge(na, nb, reason)

    def assert_neq(self, a: Expr, b: Expr, reason: int = 0) -> None:
        """Assert ``a != b``; ``reason`` is the literal's bit (0: none)."""
        if self.conflict is not None:
            return
        na, nb = self.add_term(a), self.add_term(b)
        if self.conflict is not None:
            return
        self._diseqs.append((na, nb, reason))
        if self._rep[na] == self._rep[nb]:
            self.conflict = self._explain(na, nb) | reason

    def _merge(self, a: int, b: int, reason: Reason) -> None:
        """Merge the classes of ``a`` and ``b``, then close under
        congruence; records the first conflict in :attr:`conflict`."""
        pending = [(a, b, reason)]
        rep = self._rep
        while pending and self.conflict is None:
            a, b, reason = pending.pop()
            ra, rb = rep[a], rep[b]
            if ra == rb:
                continue
            # Relabel the smaller class into the larger one.
            if len(self._members[ra]) < len(self._members[rb]):
                a, b, ra, rb = b, a, rb, ra
            self._link(b, a, reason)
            ca, cb = self._const[ra], self._const[rb]
            if ca is not None and cb is not None:
                self.conflict = self._explain(ca, cb)
                return
            for m in self._members[rb]:
                rep[m] = ra
            self._members[ra].extend(self._members[rb])
            self._members[rb] = []
            if ca is None:
                self._const[ra] = cb
            for x, y, bit in self._diseqs:
                if rep[x] == rep[y]:
                    self.conflict = self._explain(x, y) | bit
                    return
            moved, self._use[rb] = self._use[rb], []
            for parent in moved:
                sig = self._signature(parent)
                existing = self._sig.get(sig)
                if existing is None:
                    self._sig[sig] = parent
                elif rep[existing] != rep[parent]:
                    pending.append((existing, parent, (existing, parent)))
            self._use[ra].extend(moved)

    # -- the proof forest ---------------------------------------------------

    def _link(self, node: int, target: int, reason: Reason) -> None:
        """Add the proof edge ``node -> target``: reroot ``node``'s tree at
        ``node`` by reversing its path to the root, then hang it below
        ``target``."""
        proof, why = self._proof, self._reason
        prev, prev_reason = target, reason
        while True:
            nxt, nxt_reason = proof[node], why[node]
            proof[node], why[node] = prev, prev_reason
            if nxt == node:
                return
            prev, prev_reason, node = node, nxt_reason, nxt

    def _explain(self, a: int, b: int) -> int:
        """Bitmask of the input literals behind ``a = b`` (same class)."""
        proof, why = self._proof, self._reason
        mask = 0
        seen = set()
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            if a == b:
                continue
            # Nearest common ancestor: mark a's path to the root, then walk
            # up from b until the path is hit.
            path = {a}
            node = a
            while proof[node] != node:
                node = proof[node]
                path.add(node)
            ancestor = b
            while ancestor not in path:
                ancestor = proof[ancestor]
            for start in (a, b):
                node = start
                while node != ancestor:
                    if node not in seen:
                        seen.add(node)
                        reason = why[node]
                        if isinstance(reason, int):
                            mask |= reason
                        else:
                            left, right = reason
                            todo.extend(zip(self._children[left],
                                            self._children[right]))
                    node = proof[node]
        return mask

    def explain(self, a: Expr, b: Expr) -> int:
        """Bitmask of the literal bits whose assertions entail ``a = b``.

        Both terms must already be in one class."""
        return self._explain(self._ids[a], self._ids[b])

    # -- queries ------------------------------------------------------------

    @property
    def in_conflict(self) -> bool:
        return self.conflict is not None

    def are_equal(self, a: Expr, b: Expr) -> bool:
        if a == b:
            return True
        # Registering the terms lets congruence fire for queries about terms
        # that were not part of any asserted literal (f(a) = f(b) after a = b).
        return self._rep[self.add_term(a)] == self._rep[self.add_term(b)]

    def class_unchanged(self, rep: int,
                        snapshot: "CongruenceClosure") -> bool:
        """Is ``rep``, a representative in ``snapshot`` (this closure or one
        it was copied from), still the representative of its class, with
        the constant it had there?  If so, the representative, constant and
        explanations of the class's members in ``snapshot`` still hold."""
        return (self._rep[rep] == rep
                and self._const[rep] == snapshot._const[rep])

    def lookup(self, e: Expr) -> Optional[Tuple[int, Optional[Expr]]]:
        """``(representative, constant)`` of ``e``'s class, or None when
        ``e`` is not a node.  Registers nothing."""
        node = self._ids.get(e)
        if node is None:
            return None
        rep = self._rep[node]
        const = self._const[rep]
        return rep, None if const is None else self._terms[const]

    def representative(self, e: Expr) -> int:
        """The class representative id for ``e`` (registering it if needed)."""
        return self._rep[self.add_term(e)]

    def explain_representative(self, e: Expr) -> int:
        """The explanation of ``e`` being equal to its representative."""
        node = self.add_term(e)
        return self._explain(node, self._rep[node])

    def classes(self) -> Dict[int, List[Expr]]:
        """All equivalence classes as representative-id -> member terms."""
        terms = self._terms
        return {rep: [terms[m] for m in members]
                for rep, members in enumerate(self._members) if members}

    def int_constants(self) -> Iterable[Tuple[int, int, int]]:
        """``(representative, value, explanation)`` for every class that
        holds an integer constant; the explanation is why the
        representative equals the constant."""
        terms = self._terms
        for rep, const in enumerate(self._const):
            if const is not None and self._rep[rep] == rep:
                term = terms[const]
                if isinstance(term, IntLit):
                    yield rep, term.value, self._explain(rep, const)

    def int_value_of(self, e: Expr) -> Optional[int]:
        """If the class of ``e`` contains an integer literal, its value."""
        node = self._ids.get(e)
        if node is None:
            return None
        const = self._const[self._rep[node]]
        if const is None:
            return None
        term = self._terms[const]
        return term.value if isinstance(term, IntLit) else None

    def explain_value(self, e: Expr) -> int:
        """The explanation of :meth:`int_value_of` for ``e``."""
        node = self._ids[e]
        return self._explain(node, self._const[self._rep[node]])
