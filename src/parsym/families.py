"""Diagram families carving out the classical diagram subalgebras.

Each family is defined once, by a ``GrowthRule`` over the node order
1, ..., k, 1', ..., k':

* permutation: every block is a propagating pair {i, j'};
* planar: no two blocks cross in the boundary order 1, ..., k, k', ..., 1';
* matching: every block has at most two nodes (Rook-Brauer);
* perfect matching: every block has exactly two nodes (Brauer);
* partial permutation: matching whose pairs all propagate (rook monoid);
* the three planar-* tags are conjunctions (Temperley-Lieb, Motzkin,
  planar rook).

The empty diagram belongs to every family.  ``enumerate_family``,
``count_family`` and ``count_family_by_m`` prune the walk of
``enumerate_diagrams`` with the rule.  That walk is the one membership
route: the closure certificate looks a diagram up among the members it
yielded.  The planar rules are ``noncrossing``: the walk keeps the blocks
the next node can join without a crossing as state, so no join scans the
blocks.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .diagrams import (
    GrowthRule,
    PartitionDiagram,
    count_by_m,
    count_diagrams,
    enumerate_diagrams,
)


class Family(enum.Enum):
    ALL = "all"
    PERMUTATION = "permutation"
    PLANAR = "planar"
    MATCHING = "matching"
    PERFECT_MATCHING = "perfect-matching"
    PARTIAL_PERMUTATION = "partial-permutation"
    PLANAR_PERFECT_MATCHING = "planar-perfect-matching"
    PLANAR_MATCHING = "planar-matching"
    PLANAR_PARTIAL_PERMUTATION = "planar-partial-permutation"

    @classmethod
    def from_name(cls, name: str) -> "Family":
        for fam in cls:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# growth rules: nodes arrive in the order 1, ..., k, 1', ..., k'


_MATCHING = GrowthRule(lambda blocks, b, v: len(b) == 1)
# a new lone node must leave no more lone nodes than nodes left to pair
# them, so at the leaf every block is a pair.  Every block of a matching
# prefix holds one node or two, so the lone ones number twice the blocks
# less the nodes placed: v - 1 before top node v, left - 2v - 1 before a
# bottom one.
_PERFECT_MATCHING = _MATCHING._replace(
    opens=lambda blocks, v, left: 2 * len(blocks) - (v - 1 if v > 0 else left - 2 * v - 1) < left
)
# a bottom node may only pair with a lone top node
_PARTIAL_PERMUTATION = GrowthRule(
    lambda blocks, b, v: v < 0 and len(b) == 1 and b[0] > 0
)

_RULES = {
    # only top nodes open blocks, so every bottom node closes one and a
    # finished partition is k propagating pairs
    Family.PERMUTATION: _PARTIAL_PERMUTATION._replace(
        opens=lambda blocks, v, left: v > 0
    ),
    Family.PLANAR: GrowthRule(noncrossing=True),
    Family.MATCHING: _MATCHING,
    Family.PERFECT_MATCHING: _PERFECT_MATCHING,
    Family.PARTIAL_PERMUTATION: _PARTIAL_PERMUTATION,
    Family.PLANAR_PERFECT_MATCHING: _PERFECT_MATCHING._replace(noncrossing=True),
    Family.PLANAR_MATCHING: _MATCHING._replace(noncrossing=True),
    Family.PLANAR_PARTIAL_PERMUTATION: _PARTIAL_PERMUTATION._replace(noncrossing=True),
}


def enumerate_family(
    k: int, family: Family, max_order: int | None = None
) -> Iterator[PartitionDiagram]:
    """Family members of order k, in the global enumeration order."""
    return enumerate_diagrams(k, max_order=max_order, rule=_RULES.get(family))


def count_family(k: int, family: Family, max_order: int | None = None, irreducible: bool = False) -> int:
    """Members of order k, or tensor-irreducible ones, counted without building one."""
    return count_diagrams(k, max_order, _RULES.get(family), irreducible)


def count_family_by_m(
    k: int, family: Family, max_order: int | None = None, irreducible: bool = False
) -> dict[int, int]:
    """Members of order k, or tensor-irreducible ones, per value of the
    bullet statistic m, counted without building one."""
    return count_by_m(k, max_order, _RULES.get(family), irreducible)
