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

The empty diagram belongs to every family.  ``enumerate_family`` and
``count_family`` prune the walk of ``enumerate_diagrams`` with the rule;
``family_member``, which the closure checks use, replays labels through it.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .diagrams import GrowthRule, PartitionDiagram, _slots, count_diagrams, enumerate_diagrams


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


def _no_crossing(blocks, b, v) -> bool:
    # The boundary 1, ..., k, k', ..., 1' read from k' round to k is the
    # integer order of the node values.  The placed nodes form an interval
    # of it with v just past one end, so v may join b iff no block has nodes
    # on both sides of b; in a noncrossing partition a block straddling one
    # node of b straddles all of them, so testing min(b) suffices.
    x = min(b)
    return not any(min(c) < x < max(c) for c in blocks)


def _planar(rule: GrowthRule) -> GrowthRule:
    """``rule`` and the planar rule, which refuses only joins."""
    return rule._replace(
        joins=lambda blocks, b, v: rule.joins(blocks, b, v)
        and _no_crossing(blocks, b, v)
    )


_MATCHING = GrowthRule(lambda blocks, b, v: len(b) == 1)
# a new lone node must leave no more lone nodes than nodes left to pair
# them, so at the leaf every block is a pair
_PERFECT_MATCHING = _MATCHING._replace(
    opens=lambda blocks, v, left: sum(len(b) == 1 for b in blocks) < left
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
    Family.PLANAR: GrowthRule(_no_crossing),
    Family.MATCHING: _MATCHING,
    Family.PERFECT_MATCHING: _PERFECT_MATCHING,
    Family.PARTIAL_PERMUTATION: _PARTIAL_PERMUTATION,
    Family.PLANAR_PERFECT_MATCHING: _planar(_PERFECT_MATCHING),
    Family.PLANAR_MATCHING: _planar(_MATCHING),
    Family.PLANAR_PARTIAL_PERMUTATION: _planar(_PARTIAL_PERMUTATION),
}


def enumerate_family(
    k: int, family: Family, max_order: int | None = None
) -> Iterator[PartitionDiagram]:
    """Family members of order k, in the global enumeration order."""
    return enumerate_diagrams(k, max_order=max_order, rule=_RULES.get(family))


def count_family(k: int, family: Family, max_order: int | None = None, irreducible: bool = False) -> int:
    """Members of order k, or tensor-irreducible ones, counted without building one."""
    return count_diagrams(k, max_order, _RULES.get(family), irreducible)


def family_member(d: PartitionDiagram, family: Family) -> bool:
    """True iff d's labels, replayed in slot order through the family's
    rule, admit every node as a join or, where its label is new, as an open.
    The walk of ``enumerate_family`` visits exactly these paths."""
    rule = _RULES.get(family)
    if rule is None:
        return True
    blocks: list[list[int]] = []
    left = len(d.labels)
    for v, x in zip(_slots(d.order)[0], d.labels):
        left -= 1
        if x < len(blocks):
            if not rule.joins(blocks, blocks[x], v):
                return False
            blocks[x].append(v)
        elif rule.opens(blocks, v, left):
            blocks.append([v])
        else:
            return False
    return True
