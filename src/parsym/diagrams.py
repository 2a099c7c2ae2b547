"""Partition diagrams and their purely diagrammatic operations.

A partition diagram of order k is a set partition of the 2k symbols
1, ..., k (top row) and 1', ..., k' (bottom row).  Internally a top node i
is stored as the integer +i and a bottom node i' as -i.  Nodes are totally
ordered top row first: 1 < 2 < ... < k < 1' < 2' < ... < k'.

Canonical form: inside a block, nodes are sorted by that order; blocks are
sorted by their minimal node.  Two diagrams are equal iff their canonical
forms coincide, and all constructors canonicalise.

The two product-like operations are

* ``tensor(a, b)``  -- horizontal concatenation, b placed to the right of a;
* ``bullet(a, b)``  -- near-concatenation: tensor, then merge the block of
  the bottom-right node of ``a`` with the block of the bottom-left node of
  ``b``.  The empty diagram is absorbed on either side.

``vertical_compose`` is the partition-monoid product (stack, remove the
middle row, count the removed middle-only components).

A *tensor cut* at position i is a vertical line between columns i and i+1
crossed by no block; splitting at all tensor cuts gives the unique
factorisation into tensor-irreducible diagrams.  A *bullet cut* at i exists
when i' and (i+1)' share a block and that block is the only one crossing
the line; splitting the crossing block at every bullet cut gives the unique
bullet decomposition, whose length is the statistic m(d).
"""

from __future__ import annotations

import functools
import os
import re
from typing import Callable, Iterable, Iterator, NamedTuple

DEFAULT_MAX_ORDER = 6

_NODE_RE = re.compile(r"^([0-9]+)(')?$")


class CapExceeded(ValueError):
    """An operation refused to run past its configured size cap."""


def global_max_order() -> int:
    """The enumeration order cap, overridable via PARSYM_MAX_ORDER."""
    value = os.environ.get("PARSYM_MAX_ORDER")
    if value is None:
        return DEFAULT_MAX_ORDER
    return int(value)


def _node_key(v: int) -> tuple[bool, int]:
    return (v < 0, abs(v))


def node_name(v: int) -> str:
    return str(v) if v > 0 else f"{-v}'"


class PartitionDiagram:
    """Canonical set partition of {1..k, 1'..k'}; immutable and hashable."""

    __slots__ = ("order", "blocks", "_hash")

    order: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, order: int, blocks: Iterable[Iterable[int]]):
        if type(order) is not int or order < 0:
            raise ValueError("order must be a nonnegative integer")
        canonical = tuple(
            sorted(
                (tuple(sorted(block, key=_node_key)) for block in blocks),
                key=lambda block: _node_key(block[0]),
            )
        )
        seen: set[int] = set()
        for block in canonical:
            if not block:
                raise ValueError("empty block")
            for v in block:
                if v == 0 or abs(v) > order:
                    raise ValueError(f"node {node_name(v) if v else v} out of range")
                if v in seen:
                    raise ValueError(f"duplicate node {node_name(v)}")
                seen.add(v)
        if len(seen) != 2 * order:
            for i in range(1, order + 1):
                for v in (i, -i):
                    if v not in seen:
                        raise ValueError(f"missing node {node_name(v)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "blocks", canonical)
        object.__setattr__(self, "_hash", hash((order, canonical)))

    @classmethod
    def _canonical(cls, order: int, blocks: tuple[tuple[int, ...], ...]):
        """Wrap blocks already in canonical form, skipping the checks."""
        d = object.__new__(cls)
        object.__setattr__(d, "order", order)
        object.__setattr__(d, "blocks", blocks)
        object.__setattr__(d, "_hash", hash((order, blocks)))
        return d

    def __setattr__(self, name, value):
        raise AttributeError("PartitionDiagram is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionDiagram)
            and self.order == other.order
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PartitionDiagram({render(self)!r})"

    def is_empty(self) -> bool:
        return self.order == 0


EMPTY_DIAGRAM = PartitionDiagram(0, ())


def identity_diagram(k: int) -> PartitionDiagram:
    """The diagram with blocks {i, i'}; unit of vertical composition."""
    return PartitionDiagram(k, [(i, -i) for i in range(1, k + 1)])


def sort_key(d: PartitionDiagram) -> tuple[int, str]:
    """Deterministic report order: degree first, then canonical text."""
    return (d.order, render(d))


# ---------------------------------------------------------------------------
# text and JSON forms


def parse(text: str) -> PartitionDiagram:
    """Parse a diagram string like ``"1,2,3,4,3'/5,5'/1'/2'/4'"``.

    Whitespace is ignored.  ``"()"`` denotes the empty diagram.  The order k
    is the largest index mentioned, and every index 1..k must occur exactly
    once in each row.
    """
    stripped = "".join(text.split())
    if stripped == "()":
        return EMPTY_DIAGRAM
    if not stripped:
        raise ValueError("empty diagram string (use '()' for the empty diagram)")
    blocks: list[list[int]] = []
    for chunk in stripped.split("/"):
        block: list[int] = []
        for token in chunk.split(","):
            match = _NODE_RE.match(token)
            if not match or int(match.group(1)) == 0:
                raise ValueError(f"malformed token {token!r}")
            index = int(match.group(1))
            block.append(-index if match.group(2) else index)
        blocks.append(block)
    order = max(abs(v) for block in blocks for v in block)
    return PartitionDiagram(order, blocks)


def render(d: PartitionDiagram) -> str:
    """Canonical text form; inverse of :func:`parse`."""
    if d.is_empty():
        return "()"
    return "/".join(",".join(node_name(v) for v in block) for block in d.blocks)


def to_json_obj(d: PartitionDiagram) -> dict:
    """JSON form ``{"order": k, "blocks": [[...]]}`` with i' encoded as -i."""
    return {"order": d.order, "blocks": [list(block) for block in d.blocks]}


def from_json_obj(obj: dict) -> PartitionDiagram:
    blocks = obj.get("blocks") if isinstance(obj, dict) else None
    if not isinstance(blocks, list) or not all(
        isinstance(block, list) and all(type(v) is int for v in block)
        for block in blocks
    ):
        raise ValueError('expected {"order": k, "blocks": [[int, ...], ...]}')
    return PartitionDiagram(obj.get("order"), blocks)


# ---------------------------------------------------------------------------
# enumeration


def _always(*_args) -> bool:
    return True


class GrowthRule(NamedTuple):
    """Pruning for ``enumerate_diagrams``, which places nodes in node order:
    may node v join block b, may v open a new block, is a finished
    partition accepted.  A refused branch is skipped whole, so the accepted
    diagrams come out in the unpruned order."""

    joins: Callable[[list[list[int]], list[int], int], bool]
    opens: Callable[[list[list[int]], int], bool] = _always
    complete: Callable[[list[list[int]]], bool] = _always


def enumerate_diagrams(
    k: int, max_order: int | None = None, rule: GrowthRule | None = None
) -> Iterator[PartitionDiagram]:
    """Yield every diagram of order k once, in restricted-growth-string
    lexicographic order over the node order (Knuth, TAOCP 4A 7.2.1.5); the
    count is the Bell number of 2k.  With a ``rule``, yield only the
    diagrams it admits, in the same order.  Refuses k beyond the cap
    (default 6, env PARSYM_MAX_ORDER)."""
    cap = global_max_order() if max_order is None else max_order
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k > cap:
        raise CapExceeded(f"order {k} exceeds enumeration cap {cap}")
    nodes = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[PartitionDiagram]:
        if i == len(nodes):
            # nodes were placed in node order, so the blocks are canonical
            if rule is None or rule.complete(blocks):
                yield PartitionDiagram._canonical(k, tuple([tuple(b) for b in blocks]))
            return
        v = nodes[i]
        for b in blocks:
            if rule is None or rule.joins(blocks, b, v):
                b.append(v)
                yield from rec(i + 1)
                b.pop()
        if rule is None or rule.opens(blocks, v):
            blocks.append([v])
            yield from rec(i + 1)
            blocks.pop()

    return rec(0)


# ---------------------------------------------------------------------------
# products


@functools.lru_cache(maxsize=1 << 18)
def tensor(a: PartitionDiagram, b: PartitionDiagram) -> PartitionDiagram:
    """Horizontal concatenation: b shifted by order(a) and placed after a."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    shift = a.order
    shifted = [
        tuple(v + shift if v > 0 else v - shift for v in block) for block in b.blocks
    ]
    return PartitionDiagram(a.order + b.order, list(a.blocks) + shifted)


def tensor_fold(factors: Iterable[PartitionDiagram]) -> PartitionDiagram:
    out = EMPTY_DIAGRAM
    for f in factors:
        out = tensor(out, f)
    return out


@functools.lru_cache(maxsize=1 << 18)
def bullet(a: PartitionDiagram, b: PartitionDiagram) -> PartitionDiagram:
    """Near-concatenation: tensor, then merge the blocks of the two
    inner-facing bottom nodes.  The empty diagram acts as identity."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    t = tensor(a, b)
    left, right = -a.order, -(a.order + 1)
    merged: list[int] = []
    rest: list[tuple[int, ...]] = []
    for block in t.blocks:
        if left in block or right in block:
            merged.extend(block)
        else:
            rest.append(block)
    rest.append(tuple(merged))
    return PartitionDiagram(t.order, rest)


def bullet_fold(factors: Iterable[PartitionDiagram]) -> PartitionDiagram:
    out = EMPTY_DIAGRAM
    for f in factors:
        out = bullet(out, f)
    return out


def vertical_compose(
    a: PartitionDiagram, b: PartitionDiagram
) -> tuple[PartitionDiagram, int]:
    """Partition-monoid product: identify a's bottom row with b's top row,
    take connected components, drop the middle row.

    Returns (diagram, removed) where removed counts the components living
    entirely in the middle row (the exponent of the loop parameter).
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    k = a.order
    # union-find over 3k slots: a-top 0..k-1, middle k..2k-1, b-bottom 2k..3k-1
    parent = list(range(3 * k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for block in a.blocks:
        slots = [v - 1 if v > 0 else k + (-v) - 1 for v in block]
        for s in slots[1:]:
            union(slots[0], s)
    for block in b.blocks:
        slots = [k + v - 1 if v > 0 else 2 * k + (-v) - 1 for v in block]
        for s in slots[1:]:
            union(slots[0], s)

    components: dict[int, list[int]] = {}
    for slot in range(3 * k):
        components.setdefault(find(slot), []).append(slot)
    blocks: list[list[int]] = []
    removed = 0
    for members in components.values():
        block = [m + 1 for m in members if m < k]
        block += [-(m - 2 * k + 1) for m in members if m >= 2 * k]
        if block:
            blocks.append(block)
        else:
            removed += 1
    return PartitionDiagram(k, blocks), removed


# ---------------------------------------------------------------------------
# cuts, factorisations, statistics

# The column of node v is abs(v); a block "crosses" position i when it has
# nodes in columns <= i and in columns > i.


def _crossing_counts(d: PartitionDiagram) -> list[int]:
    counts = [0] * (d.order + 1)
    for block in d.blocks:
        lo = min(abs(v) for v in block)
        hi = max(abs(v) for v in block)
        for i in range(lo, hi):
            counts[i] += 1
    return counts


def tensor_cuts(d: PartitionDiagram) -> list[int]:
    """Positions i with no block crossing the line between columns i, i+1."""
    counts = _crossing_counts(d)
    return [i for i in range(1, d.order) if counts[i] == 0]


def is_tensor_irreducible(d: PartitionDiagram) -> bool:
    """True iff d is nonempty and admits no tensor cut."""
    return not d.is_empty() and not tensor_cuts(d)


def _extract_segment(
    d: PartitionDiagram, lo: int, hi: int, split_blocks: bool
) -> PartitionDiagram:
    # restrict to columns (lo, hi] and shift down by lo
    blocks = []
    for block in d.blocks:
        piece = tuple(
            v - lo if v > 0 else v + lo for v in block if lo < abs(v) <= hi
        )
        if piece:
            if not split_blocks and len(piece) != len(block):
                raise AssertionError("block crosses a tensor cut")
            blocks.append(piece)
    return PartitionDiagram(hi - lo, blocks)


@functools.lru_cache(maxsize=1 << 16)
def _tensor_factorize(d: PartitionDiagram) -> tuple[PartitionDiagram, ...]:
    bounds = [0] + tensor_cuts(d) + [d.order]
    return tuple(
        _extract_segment(d, bounds[j], bounds[j + 1], split_blocks=False)
        for j in range(len(bounds) - 1)
    )


def tensor_factorize(d: PartitionDiagram) -> list[PartitionDiagram]:
    """The unique factorisation of a nonempty diagram into tensor-irreducible
    factors (split at every tensor cut)."""
    if d.is_empty():
        raise ValueError("the empty diagram has no tensor factorisation")
    return list(_tensor_factorize(d))


def bullet_cuts(d: PartitionDiagram) -> list[int]:
    """Positions i where i' and (i+1)' share a block and that block is the
    only one crossing the line; exactly the positions of nonempty splits
    d = x . y under the bullet product."""
    k = d.order
    if k <= 1:
        return []
    owner = {}
    for idx, block in enumerate(d.blocks):
        for v in block:
            if v < 0:
                owner[-v] = idx
    counts = _crossing_counts(d)
    return [
        i for i in range(1, k) if owner[i] == owner[i + 1] and counts[i] == 1
    ]


@functools.lru_cache(maxsize=1 << 16)
def _bullet_decompose(d: PartitionDiagram) -> tuple[PartitionDiagram, ...]:
    bounds = [0] + bullet_cuts(d) + [d.order]
    return tuple(
        _extract_segment(d, bounds[j], bounds[j + 1], split_blocks=True)
        for j in range(len(bounds) - 1)
    )


def bullet_decompose(d: PartitionDiagram) -> list[PartitionDiagram]:
    """The unique decomposition of a nonempty diagram into bullet-irreducible
    factors; its length is the statistic m(d)."""
    if d.is_empty():
        raise ValueError("the empty diagram has no bullet decomposition")
    return list(_bullet_decompose(d))


def m_statistic(d: PartitionDiagram) -> int:
    """Length of the bullet decomposition, with m(empty) = 0."""
    if d.is_empty():
        return 0
    return len(bullet_cuts(d)) + 1


def is_bullet_irreducible(d: PartitionDiagram) -> bool:
    """True iff d is nonempty and admits no bullet cut."""
    return not d.is_empty() and not bullet_cuts(d)


def propagation_number(d: PartitionDiagram) -> int:
    """Number of blocks containing both a top and a bottom node."""
    return sum(
        1
        for block in d.blocks
        if any(v > 0 for v in block) and any(v < 0 for v in block)
    )
