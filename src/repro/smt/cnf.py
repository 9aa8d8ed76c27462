"""Conversion of logical formulas to CNF over theory atoms.

The pipeline is:

1. :func:`to_nnf` — rewrite implications/iffs and push negations down to the
   atoms (negated atoms stay as negative literals, they are not rewritten
   into complementary atoms here; the theory layer understands negation).
2. :func:`tseitin` — structural (Tseitin) CNF conversion.  Each distinct
   theory atom is mapped to a propositional variable; auxiliary variables are
   introduced for internal conjunctions/disjunctions so the output size is
   linear in the input.

The :class:`AtomMap` records the bijection between propositional variables
and theory atoms so the lazy-SMT loop can translate SAT models back into sets
of theory literals.

All conversions are iterative — deeply nested formulas (thousands of
conjuncts from a long function body) must not hit the recursion limit — and
:func:`to_nnf`/:func:`collect_atoms` are memoised per interned term
(:func:`repro.logic.terms.clear_memos` drops the tables).  :func:`tseitin`
is inherently stateful (it allocates SAT variables in visit order) and is
recomputed per call, but its traversal reproduces the historical recursive
order exactly: clause emission and variable allocation are byte-for-byte
stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.logic.terms import (
    App,
    BinOp,
    BoolLit,
    Expr,
    Field,
    Ite,
    UnOp,
    Var,
)
from repro.logic.sorts import BOOL

#: (term, polarity) -> NNF term.
_NNF_MEMO: Dict[Tuple[Expr, bool], Expr] = {}
#: NNF term -> the atoms its Tseitin encoding references.
_ATOMS_MEMO: Dict[Expr, FrozenSet[Expr]] = {}


def _clear_local_memos() -> None:
    _NNF_MEMO.clear()
    _ATOMS_MEMO.clear()


@dataclass
class AtomMap:
    """Bijection between theory atoms (boolean-sorted Exprs) and SAT variables."""

    atom_to_var: Dict[Expr, int] = field(default_factory=dict)
    var_to_atom: Dict[int, Expr] = field(default_factory=dict)
    _next_var: int = 1

    def var_for(self, atom: Expr) -> int:
        if atom in self.atom_to_var:
            return self.atom_to_var[atom]
        v = self._next_var
        self._next_var += 1
        self.atom_to_var[atom] = v
        self.var_to_atom[v] = atom
        return v

    def fresh_aux(self) -> int:
        """A fresh propositional variable with no associated theory atom."""
        v = self._next_var
        self._next_var += 1
        return v

    def atom_of(self, var: int) -> Expr | None:
        return self.var_to_atom.get(var)

    @property
    def num_vars(self) -> int:
        return self._next_var - 1


def to_nnf(e: Expr, polarity: bool = True) -> Expr:
    """Negation normal form.  ``polarity=False`` computes NNF of ``not e``.

    Iterative worklist over ``(term, polarity)`` pairs with a per-process
    memo; produces exactly the formula the old recursion did.
    """
    memo = _NNF_MEMO
    key = (e, polarity)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # Frames: ("visit", node, pol) computes memo[(node, pol)];
    # ("alias", key, src_key) copies an already-computed entry;
    # ("combine", key, op, lkey, rkey) joins two computed children.
    stack: List[tuple] = [("visit", e, polarity)]
    while stack:
        frame = stack.pop()
        kind = frame[0]
        if kind == "alias":
            memo[frame[1]] = memo[frame[2]]
            continue
        if kind == "combine":
            _, k, op, lk, rk = frame
            memo[k] = BinOp(op, memo[lk], memo[rk], BOOL)
            continue
        node, pol = frame[1], frame[2]
        k = (node, pol)
        if k in memo:
            continue
        if isinstance(node, BoolLit):
            memo[k] = BoolLit(node.value if pol else not node.value)
            continue
        if isinstance(node, UnOp) and node.op == "!":
            sub = (node.operand, not pol)
            stack.append(("alias", k, sub))
            stack.append(("visit", node.operand, not pol))
            continue
        if isinstance(node, BinOp):
            op = node.op
            if op == "&&" or op == "||":
                flipped = "||" if op == "&&" else "&&"
                new_op = op if pol else flipped
                stack.append(("combine", k, new_op,
                              (node.left, pol), (node.right, pol)))
                stack.append(("visit", node.right, pol))
                stack.append(("visit", node.left, pol))
                continue
            if op == "=>":
                # p => q  ==  ~p \/ q
                if pol:
                    stack.append(("combine", k, "||",
                                  (node.left, False), (node.right, True)))
                    stack.append(("visit", node.right, True))
                    stack.append(("visit", node.left, False))
                else:
                    stack.append(("combine", k, "&&",
                                  (node.left, True), (node.right, False)))
                    stack.append(("visit", node.right, False))
                    stack.append(("visit", node.left, True))
                continue
            if op == "<=>":
                # p <=> q  ==  (p => q) /\ (q => p)
                expanded = BinOp("&&",
                                 BinOp("=>", node.left, node.right, BOOL),
                                 BinOp("=>", node.right, node.left, BOOL),
                                 BOOL)
                stack.append(("alias", k, (expanded, pol)))
                stack.append(("visit", expanded, pol))
                continue
            # Comparison over booleans: "b = true" style atoms stay atoms.
        if isinstance(node, Ite):
            # Boolean ITE: (c /\ t) \/ (~c /\ e)
            expanded = BinOp("||",
                             BinOp("&&", node.cond, node.then, BOOL),
                             BinOp("&&", UnOp("!", node.cond, BOOL),
                                   node.els, BOOL),
                             BOOL)
            stack.append(("alias", k, (expanded, pol)))
            stack.append(("visit", expanded, pol))
            continue
        # Atom (Var, App, Field, comparison BinOp, ...)
        memo[k] = node if pol else UnOp("!", node, BOOL)
    return memo[key]


def _is_atom(e: Expr) -> bool:
    if isinstance(e, (Var, App, Field, BoolLit)):
        return True
    if isinstance(e, BinOp) and e.op not in ("&&", "||", "=>", "<=>"):
        return True
    return False


def tseitin(formula: Expr, atoms: AtomMap) -> List[List[int]]:
    """Convert an NNF formula to CNF clauses via Tseitin encoding.

    The returned clauses assert the formula (the root's definition literal is
    asserted as a unit clause).  The explicit-stack traversal visits nodes in
    the same order as the old recursive ``encode``, so SAT variable numbering
    and clause order are unchanged.
    """
    clauses: List[List[int]] = []
    root_slot = [0]
    # Frames: ("visit", node, dest, i) stores the literal for node in
    # dest[i]; ("neg", dest, i, tmp) negates a computed sub-literal;
    # ("emit", op, lits, dest, i) allocates the aux var for a finished
    # conjunction/disjunction and emits its defining clauses.
    stack: List[tuple] = [("visit", formula, root_slot, 0)]
    while stack:
        frame = stack.pop()
        kind = frame[0]
        if kind == "neg":
            _, dest, i, tmp = frame
            dest[i] = -tmp[0]
            continue
        if kind == "emit":
            _, op, lits, dest, i = frame
            aux = atoms.fresh_aux()
            if op == "&&":
                # aux -> each lit ; (all lits) -> aux
                for lit in lits:
                    clauses.append([-aux, lit])
                clauses.append([aux] + [-lit for lit in lits])
            else:
                # aux -> (l1 \/ ... \/ ln); each lit -> aux
                clauses.append([-aux] + lits)
                for lit in lits:
                    clauses.append([-lit, aux])
            dest[i] = aux
            continue
        _, node, dest, i = frame
        if isinstance(node, BoolLit):
            v = atoms.fresh_aux()
            clauses.append([v] if node.value else [-v])
            dest[i] = v
            continue
        if isinstance(node, UnOp) and node.op == "!":
            if _is_atom(node.operand):
                dest[i] = -atoms.var_for(node.operand)
            else:
                tmp = [0]
                stack.append(("neg", dest, i, tmp))
                stack.append(("visit", node.operand, tmp, 0))
            continue
        if _is_atom(node):
            dest[i] = atoms.var_for(node)
            continue
        if isinstance(node, BinOp) and node.op in ("&&", "||"):
            parts = _flatten(node, node.op)
            lits = [0] * len(parts)
            stack.append(("emit", node.op, lits, dest, i))
            for index in range(len(parts) - 1, -1, -1):
                stack.append(("visit", parts[index], lits, index))
            continue
        # Anything else (shouldn't appear after NNF) is treated as an atom.
        dest[i] = atoms.var_for(node)
    clauses.append([root_slot[0]])
    return clauses


def collect_atoms(e: Expr) -> FrozenSet[Expr]:
    """The theory atoms an NNF formula's Tseitin encoding will reference.

    Mirrors :func:`tseitin`'s traversal exactly (including the conservative
    fall-through that treats unexpected nodes as atoms), so
    ``{atoms.atom_to_var[a] for a in collect_atoms(nnf)}`` is precisely the
    set of atom variables the encoded clauses mention.  The incremental
    context layer uses this to restrict theory checks to the *active* atoms
    of a query.  Returns a (memoised) frozenset.
    """
    memo = _ATOMS_MEMO
    hit = memo.get(e)
    if hit is not None:
        return hit
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            out: set = set()
            for c in _atom_children(node):
                out |= memo[c]
            memo[node] = frozenset(out)
            continue
        if node in memo:
            continue
        if isinstance(node, BoolLit):
            memo[node] = frozenset()
            continue
        if isinstance(node, UnOp) and node.op == "!":
            if _is_atom(node.operand):
                memo[node] = frozenset((node.operand,))
                continue
        elif _is_atom(node) or not (isinstance(node, BinOp)
                                    and node.op in ("&&", "||")):
            memo[node] = frozenset((node,))
            continue
        stack.append((node, True))
        for c in _atom_children(node):
            if c not in memo:
                stack.append((c, False))
    return memo[e]


def _atom_children(node: Expr) -> Tuple[Expr, ...]:
    """Sub-formulas :func:`collect_atoms` descends into for ``node``."""
    if isinstance(node, UnOp):
        return (node.operand,)
    return (node.left, node.right)  # type: ignore[union-attr]


def _flatten(e: Expr, op: str) -> List[Expr]:
    """Left-to-right leaves of an ``op`` spine (iterative: the spine can be
    as deep as the conjunct count)."""
    out: List[Expr] = []
    stack: List[Expr] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == op:
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def formula_to_cnf(formula: Expr) -> Tuple[List[List[int]], AtomMap]:
    """NNF + Tseitin in one call; returns (clauses, atom map)."""
    atoms = AtomMap()
    nnf = to_nnf(formula, True)
    clauses = tseitin(nnf, atoms)
    return clauses, atoms
