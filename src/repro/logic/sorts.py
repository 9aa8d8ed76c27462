"""Sorts (logical base types) used by the refinement logic and the SMT layer.

The decidable fragment RSC targets is quantifier-free formulas over:

* linear integer arithmetic (``INT``),
* booleans (``BOOL``),
* string literals compared only for (dis)equality (``STR``),
* 32-bit bit-vectors restricted to constant-mask tests (``BV32``),
* object references compared only for (dis)equality (``REF``), and
* uninterpreted functions over those sorts.

``ANY`` is the sort given to terms whose sort could not be resolved; the SMT
layer treats such terms as uninterpreted integers which keeps validity
checking sound (it only makes fewer formulas provable).
"""

from __future__ import annotations

from repro.node import Record


class Sort(Record, frozen=True, eq=False):
    """A logical sort: one module constant per name.

    Equality and hashing are ``object``'s identity slots (a sort is part
    of every term's intern key), so pickling and copying map back to the
    module constant through :func:`sort_named`."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __reduce__(self):
        return (sort_named, (self.name,))

    def is_numeric(self) -> bool:
        return self.name in ("Int", "BV32")


INT = Sort("Int")
BOOL = Sort("Bool")
STR = Sort("Str")
BV32 = Sort("BV32")
REF = Sort("Ref")
FUN = Sort("Fun")
ANY = Sort("Any")

_BY_NAME = {s.name: s for s in (INT, BOOL, STR, BV32, REF, FUN, ANY)}


def sort_named(name: str) -> Sort:
    """Look up a sort by its name, defaulting to ``ANY`` for unknown names."""
    return _BY_NAME.get(name, ANY)
