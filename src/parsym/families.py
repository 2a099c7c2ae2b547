"""Diagram families carving out the classical diagram subalgebras.

Membership predicates:

* permutation: every block is a propagating pair {i, j'};
* planar: no two blocks cross in the boundary order 1, ..., k, k', ..., 1';
* matching: every block has at most two nodes (Rook-Brauer);
* perfect matching: every block has exactly two nodes (Brauer);
* partial permutation: matching whose pairs all propagate (rook monoid);
* the three planar-* tags are conjunctions (Temperley-Lieb, Motzkin,
  planar rook).

The empty diagram belongs to every family.

``enumerate_family`` prunes the walk of ``enumerate_diagrams`` with a
per-family ``GrowthRule``, so it visits only branches that can still give
a member; the closure checks test coproduct legs and antipode words with
the predicates.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .diagrams import GrowthRule, PartitionDiagram, enumerate_diagrams


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


def _is_permutation(d: PartitionDiagram) -> bool:
    return all(
        len(block) == 2 and block[0] > 0 and block[1] < 0 for block in d.blocks
    )


def _boundary_position(v: int, k: int) -> int:
    # walk the rectangle boundary: 1, ..., k along the top, then k', ..., 1'
    return v if v > 0 else 2 * k + 1 + v


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...], k: int) -> bool:
    merged = sorted(
        [(_boundary_position(v, k), 0) for v in a]
        + [(_boundary_position(v, k), 1) for v in b]
    )
    switches = sum(
        1 for i in range(1, len(merged)) if merged[i][1] != merged[i - 1][1]
    )
    return switches >= 3


def _is_planar(d: PartitionDiagram) -> bool:
    blocks = d.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if _blocks_cross(blocks[i], blocks[j], d.order):
                return False
    return True


def _is_matching(d: PartitionDiagram) -> bool:
    return all(len(block) <= 2 for block in d.blocks)


def _is_perfect_matching(d: PartitionDiagram) -> bool:
    return all(len(block) == 2 for block in d.blocks)


def _is_partial_permutation(d: PartitionDiagram) -> bool:
    return all(
        len(block) == 1 or (block[0] > 0 and block[1] < 0) for block in d.blocks
    ) and _is_matching(d)


_PREDICATES = {
    Family.ALL: lambda d: True,
    Family.PERMUTATION: _is_permutation,
    Family.PLANAR: _is_planar,
    Family.MATCHING: _is_matching,
    Family.PERFECT_MATCHING: _is_perfect_matching,
    Family.PARTIAL_PERMUTATION: _is_partial_permutation,
    Family.PLANAR_PERFECT_MATCHING: lambda d: _is_perfect_matching(d)
    and _is_planar(d),
    Family.PLANAR_MATCHING: lambda d: _is_matching(d) and _is_planar(d),
    Family.PLANAR_PARTIAL_PERMUTATION: lambda d: _is_partial_permutation(d)
    and _is_planar(d),
}


def family_member(d: PartitionDiagram, family: Family) -> bool:
    return _PREDICATES[family](d)


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
# a new lone node must leave no more lone nodes than nodes left to pair them
_PERFECT_MATCHING = _MATCHING._replace(
    opens=lambda blocks, v, left: sum(len(b) == 1 for b in blocks) < left,
    complete=lambda blocks: all(len(b) == 2 for b in blocks),
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
