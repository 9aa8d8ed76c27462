"""Terms and predicates of the refinement logic.

Expressions are immutable (frozen records) so they can be shared and
used as dictionary keys by the SMT layer and the liquid fixpoint solver.

Every node is *hash-consed*: the constructors intern each distinct
``(class, field values)`` combination in a process-wide table, so

* structurally equal terms are the **same object** (``conj(a, b) is
  conj(a, b)``), so every node class keeps ``object``'s identity ``==``
  and ``hash()``: C slots, with no Python frame per call.  That matters
  because terms key the solver's result cache, the Tseitin atom maps, the
  congruence closure and the persistent-context LRU.  Pickling and copying
  go through the constructors, so they preserve identity.  Hashes follow
  object addresses, so no result may depend on the iteration order of a
  *set* of terms (CI repeats the SMT work counters under a second
  allocator to catch one that does), and
* the traversal utilities (:func:`free_vars`, :func:`substitute`,
  :func:`expr_size`, :func:`repro.logic.simplify.simplify`, the CNF
  conversion) can memoise per term in plain dictionaries.

The traversal memos are per-process caches with an explicit
:func:`clear_memos` (wired into :meth:`repro.smt.solver.Solver.clear_cache`);
the intern table itself is never cleared — dropping it would break the
pointer-equality invariant between terms created before and after the drop.
All traversals are iterative: a program with thousands of conjuncts must
produce a verdict, not a ``RecursionError``.

The special variables ``nu`` (the refined value, written ``v`` in source
syntax) and ``this`` (the receiver object) are ordinary :class:`Var` nodes
with reserved names; helpers :data:`VALUE_VAR` and :data:`THIS_VAR` construct
them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, \
    Sequence, Tuple, Union

from repro.logic.sorts import ANY, BOOL, INT, STR, Sort
from repro.node import MISSING, Record, fields

# ---------------------------------------------------------------------------
# hash-consing machinery
# ---------------------------------------------------------------------------

#: The process-wide intern table: ``(class, *field values) -> node``.
#: Interned nodes are immortal (the table holds the only strong reference a
#: term needs), so the memo tables below may key on them safely.
_INTERN: Dict[tuple, "Expr"] = {}

#: ``[hits, misses]`` — constructor calls served from the table vs. nodes
#: actually allocated.  ``hits + misses`` is the number of term
#: constructions *requested*; ``misses`` is the number of allocations.
#: (Plain list indexing keeps the hot path free of ``global`` rebinds; the
#: counters are statistics, not synchronisation.)
_INTERN_STATS = [0, 0]


def intern_stats() -> dict:
    """Interning counters: hits, misses (allocations), the derived hit
    rate, and the live table size."""
    hits, misses = _INTERN_STATS
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "constructions": total,
        "hit_rate": (hits / total) if total else 0.0,
        "live_terms": len(_INTERN),
    }


_FREE_VARS_MEMO: Dict["Expr", FrozenSet[str]] = {}
_EXPR_SIZE_MEMO: Dict["Expr", int] = {}
_SUBST_MEMO: Dict[tuple, "Expr"] = {}


def clear_memos() -> None:
    """Drop the traversal memo tables (results recompute identically).

    Wired into :meth:`repro.smt.solver.Solver.clear_cache` so the explicit
    cache-reset entry points (workspace/session) bound memo growth together
    with the solver's own query cache.  The intern table is deliberately
    *not* cleared — see the module docstring.
    """
    _FREE_VARS_MEMO.clear()
    _EXPR_SIZE_MEMO.clear()
    _SUBST_MEMO.clear()
    # simplify/CNF keep their own tables next to their implementations.
    # (importlib: ``repro.logic`` re-exports the ``simplify`` *function*,
    # which would shadow the module under a plain ``from ... import``.)
    import importlib
    import sys
    importlib.import_module("repro.logic.simplify")._clear_local_memos()
    # The fixpoint's kappa index: a table exists only once the fixpoint
    # module is loaded, and clearing must not load the checker.
    fixpoint = sys.modules.get("repro.core.liquid.fixpoint")
    if fixpoint is not None:
        fixpoint._clear_local_memos()
    try:
        cnf = importlib.import_module("repro.smt.cnf")
    except ImportError:  # pragma: no cover - smt layer absent
        return
    cnf._clear_local_memos()


def _interned(cls):
    """Class decorator: intern every construction of a term record.

    The class's ``__new__`` normalises the constructor arguments against
    the field defaults and looks the value tuple up in the process-wide
    table.  It returns the canonical instance, and allocates one and sets
    its fields only when the table misses; ``__init__`` is ``object``'s,
    which does nothing.  Equal nodes are one object, so ``object``'s
    identity ``==`` and ``hash`` are exact.  ``dict.get``/``dict.setdefault``
    keep the table consistent under free-threaded construction (the check
    service's executor threads build terms concurrently).
    """
    field_names = cls._record_names
    defaults = {f.name: f.default for f in fields(cls)
                if f.default is not MISSING}
    arity = len(field_names)
    set_field = object.__setattr__

    def __new__(klass, *args, **kwargs):
        if kwargs or len(args) != arity:
            unknown = [name for name in kwargs
                       if name not in field_names[len(args):]]
            if len(args) > arity or unknown:
                raise TypeError(
                    f"{klass.__name__}() takes {arity} arguments; got "
                    f"{len(args)} positional and {sorted(kwargs)}")
            vals = list(args)
            for name in field_names[len(args):]:
                if name in kwargs:
                    vals.append(kwargs[name])
                elif name in defaults:
                    vals.append(defaults[name])
                else:
                    raise TypeError(
                        f"{klass.__name__}() missing required argument: "
                        f"{name!r}")
            args = tuple(vals)
        key = (klass, *args)
        node = _INTERN.get(key)
        if node is not None:
            _INTERN_STATS[0] += 1
            return node
        _INTERN_STATS[1] += 1
        node = object.__new__(klass)
        for name, value in zip(field_names, args):
            set_field(node, name, value)
        return _INTERN.setdefault(key, node)

    def __reduce__(self):
        # Pickle as a constructor call so cross-process terms (the
        # check_files worker processes ship results, kappa solutions
        # included, through a ProcessPoolExecutor) re-intern on load:
        # unpickling (and copying) preserves identity.
        return (self.__class__,
                tuple(getattr(self, name) for name in field_names))

    cls.__new__ = __new__
    cls.__init__ = object.__init__
    cls.__reduce__ = __reduce__
    return cls


def interned_count() -> int:
    """Number of distinct live terms in the intern table."""
    return len(_INTERN)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr(Record, frozen=True, eq=False):
    """Base class of all logical expressions.

    The subclasses are frozen, interned records; every one has a ``sort``
    field, its last.  Expr itself carries no state."""

    def is_true(self) -> bool:
        return isinstance(self, BoolLit) and self.value is True

    def is_false(self) -> bool:
        return isinstance(self, BoolLit) and self.value is False

    def __and__(self, other: "Expr") -> "Expr":
        return conj(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return disj(self, other)

    def __invert__(self) -> "Expr":
        return neg(self)

    def __str__(self) -> str:
        return _render(self)


@_interned
class Var(Expr):
    """A logical variable (program variable, nu, this, or a kappa argument)."""

    name: str
    sort: Sort = ANY


@_interned
class IntLit(Expr):
    value: int
    sort: Sort = INT


@_interned
class BoolLit(Expr):
    value: bool
    sort: Sort = BOOL


@_interned
class StrLit(Expr):
    value: str
    sort: Sort = STR


@_interned
class App(Expr):
    """Application of an uninterpreted function, e.g. ``len(a)``, ``ttag(x)``."""

    fn: str
    args: Tuple[Expr, ...]
    sort: Sort = INT


@_interned
class Field(Expr):
    """Field access ``t.f`` on an object term (an uninterpreted selector)."""

    target: Expr
    name: str
    sort: Sort = ANY


# Binary operators recognised by the logic. Arithmetic, comparison, boolean
# connectives and the two bit-vector operators the tsc benchmark requires.
ARITH_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("&&", "||", "=>", "<=>")
BV_OPS = ("&", "|")
ALL_BINOPS = ARITH_OPS + CMP_OPS + BOOL_OPS + BV_OPS


@_interned
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    sort: Sort = ANY


@_interned
class UnOp(Expr):
    op: str  # "!" or "-"
    operand: Expr
    sort: Sort = ANY


@_interned
class Ite(Expr):
    """If-then-else term."""

    cond: Expr
    then: Expr
    els: Expr
    sort: Sort = ANY


def _render(e: Expr) -> str:
    """Iterative renderer shared by every ``__str__`` (recursion-free, so a
    diagnostic may print a deeply nested term without blowing the stack).
    Byte-identical to the historical per-class formatting."""
    parts: List[str] = []
    stack: List[Union[str, Expr]] = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Var):
            parts.append(item.name)
        elif isinstance(item, IntLit):
            parts.append(str(item.value))
        elif isinstance(item, BoolLit):
            parts.append("true" if item.value else "false")
        elif isinstance(item, StrLit):
            parts.append(repr(item.value))
        elif isinstance(item, App):
            stack.append(")")
            for index in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[index])
                if index:
                    stack.append(", ")
            parts.append(f"{item.fn}(")
        elif isinstance(item, Field):
            stack.append(f".{item.name}")
            stack.append(item.target)
        elif isinstance(item, BinOp):
            stack.extend((")", item.right, f" {item.op} ", item.left, "("))
        elif isinstance(item, UnOp):
            stack.append(item.operand)
            parts.append(item.op)
        elif isinstance(item, Ite):
            stack.extend((")", item.els, " else ", item.then, " then ",
                          item.cond, "(if "))
        else:  # pragma: no cover - unknown node
            parts.append(repr(item))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Reserved variables
# ---------------------------------------------------------------------------

VALUE_NAME = "v"
THIS_NAME = "this"

VALUE_VAR = Var(VALUE_NAME)
THIS_VAR = Var(THIS_NAME)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def var(name: str, sort: Sort = ANY) -> Var:
    return Var(name, sort)


def lit(value: Union[int, bool, str]) -> Expr:
    if isinstance(value, bool):
        return BoolLit(value)
    if isinstance(value, int):
        return IntLit(value)
    if isinstance(value, str):
        return StrLit(value)
    raise TypeError(f"cannot build a literal from {value!r}")


def true() -> BoolLit:
    return BoolLit(True)


def false() -> BoolLit:
    return BoolLit(False)


def conj(*ps: Expr) -> Expr:
    """Conjunction, flattening nested ANDs and dropping ``true`` units."""
    parts: list[Expr] = []
    for p in ps:
        if p is None or p.is_true():
            continue
        if isinstance(p, BinOp) and p.op == "&&":
            parts.extend(_flatten(p, "&&"))
        else:
            parts.append(p)
    if not parts:
        return true()
    if any(p.is_false() for p in parts):
        return false()
    result = parts[0]
    for p in parts[1:]:
        result = BinOp("&&", result, p, BOOL)
    return result


def disj(*ps: Expr) -> Expr:
    parts: list[Expr] = []
    for p in ps:
        if p is None or p.is_false():
            continue
        if isinstance(p, BinOp) and p.op == "||":
            parts.extend(_flatten(p, "||"))
        else:
            parts.append(p)
    if not parts:
        return false()
    if any(p.is_true() for p in parts):
        return true()
    result = parts[0]
    for p in parts[1:]:
        result = BinOp("||", result, p, BOOL)
    return result


def _flatten(e: Expr, op: str) -> list[Expr]:
    """Left-to-right leaves of an ``op`` spine, iteratively (the spine of a
    ``conj`` over thousands of parts is as deep as the part count)."""
    out: list[Expr] = []
    stack: list[Expr] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == op:
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def conjuncts(e: Expr) -> list[Expr]:
    """Split a conjunction into its conjuncts (dropping literal ``true``)."""
    parts = _flatten(e, "&&")
    return [p for p in parts if not p.is_true()]


def neg(p: Expr) -> Expr:
    if isinstance(p, BoolLit):
        return BoolLit(not p.value)
    if isinstance(p, UnOp) and p.op == "!":
        return p.operand
    return UnOp("!", p, BOOL)


def implies(p: Expr, q: Expr) -> Expr:
    if p.is_true():
        return q
    if p.is_false() or q.is_true():
        return true()
    return BinOp("=>", p, q, BOOL)


def iff(p: Expr, q: Expr) -> Expr:
    return BinOp("<=>", p, q, BOOL)


def eq(a: Expr, b: Expr) -> Expr:
    return BinOp("=", a, b, BOOL)


def ne(a: Expr, b: Expr) -> Expr:
    return BinOp("!=", a, b, BOOL)


def lt(a: Expr, b: Expr) -> Expr:
    return BinOp("<", a, b, BOOL)


def le(a: Expr, b: Expr) -> Expr:
    return BinOp("<=", a, b, BOOL)


def gt(a: Expr, b: Expr) -> Expr:
    return BinOp(">", a, b, BOOL)


def ge(a: Expr, b: Expr) -> Expr:
    return BinOp(">=", a, b, BOOL)


def plus(a: Expr, b: Expr) -> Expr:
    return BinOp("+", a, b, INT)


def minus(a: Expr, b: Expr) -> Expr:
    return BinOp("-", a, b, INT)


def times(a: Expr, b: Expr) -> Expr:
    return BinOp("*", a, b, INT)


def app(fn: str, *args: Expr, sort: Sort = INT) -> App:
    return App(fn, tuple(args), sort)


# ---------------------------------------------------------------------------
# Traversal utilities
# ---------------------------------------------------------------------------


def children(e: Expr) -> Tuple[Expr, ...]:
    if isinstance(e, App):
        return e.args
    if isinstance(e, Field):
        return (e.target,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, UnOp):
        return (e.operand,)
    if isinstance(e, Ite):
        return (e.cond, e.then, e.els)
    return ()


def rebuild(e: Expr, new_children: Sequence[Expr]) -> Expr:
    # With interning, rebuilding with identical children returns ``e``
    # itself, so callers' ``is``-based change detection keeps working.
    if isinstance(e, App):
        return App(e.fn, tuple(new_children), e.sort)
    if isinstance(e, Field):
        return Field(new_children[0], e.name, e.sort)
    if isinstance(e, BinOp):
        return BinOp(e.op, new_children[0], new_children[1], e.sort)
    if isinstance(e, UnOp):
        return UnOp(e.op, new_children[0], e.sort)
    if isinstance(e, Ite):
        return Ite(new_children[0], new_children[1], new_children[2], e.sort)
    return e


_EMPTY_NAMES: FrozenSet[str] = frozenset()


def free_vars(e: Expr) -> FrozenSet[str]:
    """The set of variable names occurring in ``e``.

    Iterative post-order with a per-term memo: interned subterms shared
    across formulas are computed once per process (until
    :func:`clear_memos`).
    """
    memo = _FREE_VARS_MEMO
    hit = memo.get(e)
    if hit is not None:
        return hit
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            out: set = set()
            for c in children(node):
                out |= memo[c]
            memo[node] = frozenset(out) if out else _EMPTY_NAMES
            continue
        if node in memo:
            continue
        if isinstance(node, Var):
            memo[node] = frozenset((node.name,))
            continue
        kids = children(node)
        if not kids:
            memo[node] = _EMPTY_NAMES
            continue
        stack.append((node, True))
        for c in kids:
            if c not in memo:
                stack.append((c, False))
    return memo[e]


def subterms(e: Expr) -> Iterable[Expr]:
    """All subterms of ``e`` (including ``e`` itself), pre-order."""
    stack: List[Expr] = [e]
    while stack:
        node = stack.pop()
        yield node
        kids = children(node)
        for index in range(len(kids) - 1, -1, -1):
            stack.append(kids[index])


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Capture-free substitution of variables by terms (no binders in Expr).

    Memoised on ``(term, mapping)`` — the fixpoint re-substitutes the same
    qualifier templates under the same occurrence substitutions every
    round.  Subterms not mentioning any substituted variable are returned
    as-is without descending (checked via the :func:`free_vars` memo).
    """
    if not mapping:
        return e
    top_key = (e, *sorted(mapping.items()))
    hit = _SUBST_MEMO.get(top_key)
    if hit is not None:
        return hit
    keys = frozenset(mapping)
    done: Dict[Expr, Expr] = {}
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            kids = children(node)
            new_kids = [done[c] for c in kids]
            if all(nk is k for nk, k in zip(new_kids, kids)):
                done[node] = node
            else:
                done[node] = rebuild(node, new_kids)
            continue
        if node in done:
            continue
        if isinstance(node, Var):
            done[node] = mapping.get(node.name, node)
            continue
        if free_vars(node).isdisjoint(keys):
            done[node] = node
            continue
        kids = children(node)
        if not kids:
            done[node] = node
            continue
        stack.append((node, True))
        for c in kids:
            if c not in done:
                stack.append((c, False))
    result = done[e]
    _SUBST_MEMO[top_key] = result
    return result


def subst_term(e: Expr, old: Expr, new: Expr) -> Expr:
    """Replace every occurrence of the subterm ``old`` by ``new``."""
    done: Dict[Expr, Expr] = {}
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            kids = children(node)
            new_kids = [done[c] for c in kids]
            if all(nk is k for nk, k in zip(new_kids, kids)):
                done[node] = node
            else:
                done[node] = rebuild(node, new_kids)
            continue
        if node in done:
            continue
        if node == old:
            done[node] = new
            continue
        kids = children(node)
        if not kids:
            done[node] = node
            continue
        stack.append((node, True))
        for c in kids:
            if c not in done:
                stack.append((c, False))
    return done[e]


def expr_size(e: Expr) -> int:
    """Number of AST nodes — used by tests and the fixpoint solver heuristics."""
    memo = _EXPR_SIZE_MEMO
    hit = memo.get(e)
    if hit is not None:
        return hit
    stack: List[Tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            memo[node] = 1 + sum(memo[c] for c in children(node))
            continue
        if node in memo:
            continue
        kids = children(node)
        if not kids:
            memo[node] = 1
            continue
        stack.append((node, True))
        for c in kids:
            if c not in memo:
                stack.append((c, False))
    return memo[e]
