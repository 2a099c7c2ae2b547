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
``count_family_by_m`` prune the walk of ``enumerate_diagrams`` with the
rule.  That walk is the one membership route: the closure certificate looks
a diagram up among the members it yielded.  The planar rules are
``noncrossing``: the walk keeps the blocks the next node can join without a
crossing as state, so no join scans the blocks.

``count_family`` and ``family_counts`` walk no member: each family also has
a move table, ``_MOVES``, for a transfer count column by column over its
open blocks (the transfer-matrix method, Stanley, *Enumerative
Combinatorics I*, 4.7).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

from .diagrams import (
    GrowthRule,
    PartitionDiagram,
    _check_order,
    count_by_m,
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


# ---------------------------------------------------------------------------
# transfer moves: nodes arrive column by column, 1, 1', 2, 2', ...; each
# family gives its zero state and the (next state, ways) of each choice of
# the next node.  A block is open while a later node still joins it.


def _blocks(lone: bool, keep: bool, planar: bool) -> tuple[int, Callable]:
    """Moves on s, the number of open blocks: the node stays alone (if
    ``lone``), opens a block, or joins one of the s open blocks and closes
    it or keeps it open (if ``keep``).  The open blocks across a line of a
    noncrossing prefix nest from top to bottom, so a ``planar`` node reaches
    only the one nearest its row."""

    def moves(s: int) -> tuple[tuple[int, int], ...]:
        reach = min(s, 1) if planar else s
        return (s, lone + keep * reach), (s + 1, 1), (s - 1, reach)

    return 0, moves


def _pairs(lone: bool, planar: bool) -> tuple[tuple[int, int], Callable]:
    """Moves on (m, o), the lone nodes waiting for a partner in the other
    row, m of them in the next node's row and o in the other: the node stays
    alone (if ``lone``), waits, or pairs with one of the o.  A ``planar``
    node pairs with the nearest, and waits only while the other row has none
    waiting, since its pair would cross theirs.  Rows alternate, so the next
    state is held from the other row's side."""

    def moves(state: tuple[int, int]) -> tuple[tuple[tuple[int, int], int], ...]:
        m, o = state
        reach = min(o, 1) if planar else o
        return ((o, m), lone), ((o, m + 1), not (planar and o)), ((o - 1, m), reach)

    return (0, 0), moves


_MOVES = {
    Family.ALL: _blocks(lone=True, keep=True, planar=False),
    Family.PERMUTATION: _pairs(lone=False, planar=False),
    Family.PLANAR: _blocks(lone=True, keep=True, planar=True),
    Family.MATCHING: _blocks(lone=True, keep=False, planar=False),
    Family.PERFECT_MATCHING: _blocks(lone=False, keep=False, planar=False),
    Family.PARTIAL_PERMUTATION: _pairs(lone=True, planar=False),
    Family.PLANAR_PERFECT_MATCHING: _blocks(lone=False, keep=False, planar=True),
    Family.PLANAR_MATCHING: _blocks(lone=True, keep=False, planar=True),
    Family.PLANAR_PARTIAL_PERMUTATION: _pairs(lone=True, planar=True),
}


def enumerate_family(
    k: int, family: Family, max_order: int | None = None
) -> Iterator[PartitionDiagram]:
    """Family members of order k, in the global enumeration order."""
    return enumerate_diagrams(k, max_order=max_order, rule=_RULES.get(family))


def count_family(k: int, family: Family, max_order: int | None = None, irreducible: bool = False) -> int:
    """Members of order k, or tensor-irreducible ones, counted column by
    column without building one, under the enumeration cap."""
    _check_order(k, max_order)
    return family_counts(k, family, irreducible)[k]


def family_counts(n: int, family: Family, irreducible: bool = False) -> list[int]:
    """Members of each order 0..n, or tensor-irreducible ones, from one
    pass of the family's transfer moves, uncapped.  A line between columns
    is a tensor cut iff no block is open there, so the zero state after
    column k holds the members of order k; with ``irreducible`` they are
    dropped before the next column."""
    zero, moves = _MOVES[family]
    weights = {zero: 1}
    counts = [int(not irreducible)]
    for _ in range(n):
        for _row in "top", "bottom":
            step: dict = {}
            for state, w in weights.items():
                for new, ways in moves(state):
                    if ways:
                        step[new] = step.get(new, 0) + ways * w
            weights = step
        counts.append(weights.pop(zero, 0) if irreducible else weights.get(zero, 0))
    return counts


def count_family_by_m(
    k: int, family: Family, max_order: int | None = None, irreducible: bool = False
) -> dict[int, int]:
    """Members of order k, or tensor-irreducible ones, per value of the
    bullet statistic m, counted without building one."""
    return count_by_m(k, max_order, _RULES.get(family), irreducible)
