"""Constant bit-mask bit-vector theory.

Section 4.3 of the paper verifies downcasts guarded by bit-mask tests such as

    if (t.flags & TypeFlags.Object) { var o = <ObjectType> t; ... }

The refinements involved only ever test a variable against *constant* masks:
``mask(v, m)`` meaning ``(v & m) != 0``.  For this fragment the theory is easy
to decide per base term:

* every positive literal ``mask(t, c)`` requires at least one bit of ``c`` to
  be set in ``t``,
* every negative literal ``!mask(t, c)`` requires all bits of ``c`` to be
  clear in ``t``,
* an equality ``t = k`` with an integer constant ``k`` fixes all bits.

A conjunction over the same base term is satisfiable iff every positive mask
has at least one bit outside the union of the negative masks (and consistent
with a fixed constant value when present).  Different base terms are
independent; base terms are canonicalised by EUF representative so equalities
between flag variables are respected.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.node import Record, field

WIDTH = 32
MASK_ALL = (1 << WIDTH) - 1


class _TermConstraints(Record):
    positive_masks: List[int] = field(default_factory=list)
    negative_masks: List[int] = field(default_factory=list)
    fixed_value: Optional[int] = None


class BvMaskSolver:
    """Decides conjunctions of constant-mask literals, grouped by base term."""

    def __init__(self) -> None:
        self._by_term: Dict[Hashable, _TermConstraints] = {}
        self._conflict = False

    def _entry(self, term_key: Hashable) -> _TermConstraints:
        return self._by_term.setdefault(term_key, _TermConstraints())

    def assert_mask(self, term_key: Hashable, mask: int, positive: bool) -> None:
        """Assert ``(t & mask) != 0`` (positive) or ``(t & mask) == 0``."""
        mask &= MASK_ALL
        entry = self._entry(term_key)
        if positive:
            if mask == 0:
                self._conflict = True
                return
            entry.positive_masks.append(mask)
        else:
            entry.negative_masks.append(mask)

    def assert_value(self, term_key: Hashable, value: int) -> None:
        """Assert that the base term equals the integer constant ``value``."""
        value &= MASK_ALL
        entry = self._entry(term_key)
        if entry.fixed_value is not None and entry.fixed_value != value:
            self._conflict = True
            return
        entry.fixed_value = value

    def check(self) -> bool:
        """True iff the asserted constraints are satisfiable."""
        if self._conflict:
            return False
        for entry in self._by_term.values():
            forbidden = 0
            for m in entry.negative_masks:
                forbidden |= m
            if entry.fixed_value is not None:
                value = entry.fixed_value
                if value & forbidden:
                    return False
                for m in entry.positive_masks:
                    if (value & m) == 0:
                        return False
                continue
            for m in entry.positive_masks:
                if (m & ~forbidden & MASK_ALL) == 0:
                    return False
        return True

    @property
    def in_conflict(self) -> bool:
        return self._conflict or not self.check()


def mask_implies(sub_mask: int, super_mask: int) -> bool:
    """``(v & sub) != 0`` implies ``(v & super) != 0`` iff sub's bits are a
    subset of super's bits.  Exposed for tests and the prelude axioms."""
    sub_mask &= MASK_ALL
    super_mask &= MASK_ALL
    return (sub_mask & ~super_mask) == 0 and sub_mask != 0
