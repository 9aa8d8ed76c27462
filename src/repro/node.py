"""``Node`` — the shared base of the mutable tree dataclasses.

``@dataclass`` compiles an ``__eq__`` and a ``__repr__`` for every class it
decorates, one ``exec`` each, at import time.  For the tree classes of
:mod:`repro.lang.ast`, :mod:`repro.ssa.ir` and :mod:`repro.rtypes.types`
that was the largest part of importing the checker, and checking never
calls either method.  Those classes are declared
``@dataclass(eq=False, repr=False)`` and inherit both methods from
:class:`Node`, which computes what the generated ones would:

* ``a == b`` compares the ``compare=True`` fields as tuples when ``a`` and
  ``b`` are of the same class, and is ``NotImplemented`` otherwise;
* ``repr(a)`` is ``QualName(field=value, ...)`` over the ``repr=True``
  fields, with ``...`` for a node already being printed on this thread;
* nodes are unhashable, as mutable ``eq=True`` dataclasses are.
"""

from __future__ import annotations

from _thread import get_ident
from dataclasses import fields
from typing import Set, Tuple

#: (id(node), thread) of every node whose repr is being computed.
_REPR_RUNNING: Set[Tuple[int, int]] = set()


class Node:
    """Field-wise ``__eq__`` and ``__repr__`` for a dataclass tree."""

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.compare]
        return (tuple(getattr(self, name) for name in names)
                == tuple(getattr(other, name) for name in names))

    def __repr__(self) -> str:
        key = (id(self), get_ident())
        if key in _REPR_RUNNING:
            return "..."
        _REPR_RUNNING.add(key)
        try:
            body = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                             for f in fields(self) if f.repr)
        finally:
            _REPR_RUNNING.discard(key)
        return f"{self.__class__.__qualname__}({body})"
