"""Partition diagrams and their purely diagrammatic operations.

A partition diagram of order k is a set partition of the 2k symbols
1, ..., k (top row) and 1', ..., k' (bottom row).  Internally a top node i
is stored as the integer +i and a bottom node i' as -i.  Nodes are totally
ordered top row first: 1 < 2 < ... < k < 1' < 2' < ... < k'.

Canonical form: a diagram stores ``order`` and ``labels``, the restricted
growth string of the partition over the slots 1..k, 1'..k': slot j holds
the index of its block, blocks numbered by their first slot.  Diagrams are
equal iff their labels are.  ``blocks`` is a view (nodes grouped by label
in slot order: each block in node order, blocks by their minimal node), as
are the text and JSON forms.  Every operation builds a label string and
relabels it once with ``_rgs``, the only canonicaliser.

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
import re
from itertools import compress, product
from typing import Callable, Iterable, Iterator, NamedTuple

DEFAULT_MAX_ORDER = 6

_NODE_RE = re.compile(r"^([0-9]+)(')?$")


class CapExceeded(ValueError):
    """An operation refused to run past its configured size cap."""


def node_name(v: int) -> str:
    return str(v) if v > 0 else f"{-v}'"


def _rgs(labels: Iterable) -> tuple[int, ...]:
    """Relabel blocks by first occurrence: the canonical label string."""
    first: dict = {}
    return tuple([first.setdefault(x, len(first)) for x in labels])


def _group(items: tuple, labels: tuple[int, ...]) -> list[list]:
    """The items of each block, blocks in label order, items in slot order."""
    groups: list[list] = []
    for item, x in zip(items, labels):
        if x == len(groups):
            groups.append([item])
        else:
            groups[x].append(item)
    return groups


_SLOTS: dict[int, tuple[tuple[int, ...], tuple[str, ...]]] = {}


def _slots(k: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Node (1..k, then -1..-k) and node name of each slot, once per order."""
    slots = _SLOTS.get(k)
    if slots is None:
        nodes = (*range(1, k + 1), *range(-1, -k - 1, -1))
        slots = _SLOTS[k] = (nodes, tuple(map(node_name, nodes)))
    return slots


class PartitionDiagram:
    """Canonical set partition of {1..k, 1'..k'}; immutable and hashable."""

    __slots__ = ("order", "labels", "_hash")

    order: int
    labels: tuple[int, ...]

    def __init__(self, order: int, blocks: Iterable[Iterable[int]]):
        if type(order) is not int or order < 0:
            raise ValueError("order must be a nonnegative integer")
        owner: dict[int, int] = {}  # node -> index of its input block
        for index, block in enumerate(blocks):
            size = 0
            for v in block:
                if v == 0 or abs(v) > order:
                    raise ValueError(f"node {node_name(v) if v else v} out of range")
                if v in owner:
                    raise ValueError(f"duplicate node {node_name(v)}")
                owner[v] = index
                size += 1
            if not size:
                raise ValueError("empty block")
        if len(owner) != 2 * order:
            for i in range(1, order + 1):
                for v in (i, -i):
                    if v not in owner:
                        raise ValueError(f"missing node {node_name(v)}")
        labels = _rgs(map(owner.__getitem__, _slots(order)[0]))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", hash(labels))

    def __setattr__(self, name, value):
        raise AttributeError("PartitionDiagram is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, PartitionDiagram) and self.labels == other.labels

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PartitionDiagram({render(self)!r})"

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each in node order, ordered by their minimal node."""
        return tuple(map(tuple, _group(_slots(self.order)[0], self.labels)))

    def is_empty(self) -> bool:
        return self.order == 0


def _diagram(labels: tuple[int, ...]) -> PartitionDiagram:
    """Wrap a canonical label string, skipping the checks."""
    d = object.__new__(PartitionDiagram)
    object.__setattr__(d, "order", len(labels) // 2)
    object.__setattr__(d, "labels", labels)
    object.__setattr__(d, "_hash", hash(labels))
    return d


EMPTY_DIAGRAM = PartitionDiagram(0, ())


def identity_diagram(k: int) -> PartitionDiagram:
    """The diagram with blocks {i, i'}; unit of vertical composition."""
    return PartitionDiagram(k, [(i, -i) for i in range(1, k + 1)])


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
    return "/".join(map(",".join, _group(_slots(d.order)[1], d.labels)))


def to_json_obj(d: PartitionDiagram) -> dict:
    """JSON form ``{"order": k, "blocks": [[...]]}`` with i' encoded as -i."""
    return {"order": d.order, "blocks": _group(_slots(d.order)[0], d.labels)}


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
    """Pruning for ``enumerate_diagrams``, which places nodes in node order,
    by two checks: may node v join block b, and may v open a new block with
    ``left`` nodes still to place after it.  A refused branch is skipped
    whole, so the admitted diagrams come out in the unpruned order; every
    finished partition is admitted, so a rule must refuse early any branch
    that cannot finish as a member.  A ``noncrossing`` rule also refuses
    every join that would cross a block in the boundary order
    1, ..., k, k', ..., 1'; the walk keeps the blocks a node can join
    without a crossing as its state (``_uncrossed``)."""

    joins: Callable[[list[list[int]], list[int], int], bool] = _always
    opens: Callable[[list[list[int]], int, int], bool] = _always
    noncrossing: bool = False


def _check_order(k: int, max_order: int | None) -> None:
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    if k < 0:
        raise ValueError("order must be nonnegative")
    if k > cap:
        raise CapExceeded(f"order {k} exceeds enumeration cap {cap}")


def enumerate_diagrams(
    k: int, max_order: int | None = None, rule: GrowthRule | None = None
) -> Iterator[PartitionDiagram]:
    """Yield every diagram of order k once, in restricted-growth-string
    lexicographic order over the node order (Knuth, TAOCP 4A 7.2.1.5); the
    count is the Bell number of 2k.  With a ``rule``, yield only the
    diagrams it admits, in the same order.  The walk is a lazy depth-first
    loop over one label string.  Refuses k beyond the cap, ``max_order``
    (default 6)."""
    _check_order(k, max_order)
    # blocks open in slot order, so the labels are already an RGS
    walk = _walk(_slots(k)[0], rule or GrowthRule(), 2 * k)
    return (_diagram(tuple(labels)) for labels, _, _ in walk)


def _uncrossed(seen: tuple[int, ...], blocks: list[list[int]], x: int, turn: bool) -> tuple[int, ...]:
    """The blocks the next node can join without a crossing, nearest the
    growing end last, once the node just placed took block x and ``seen``
    held those it could join.  A join to x encloses every block after it; an
    open adds a block.  At the ``turn`` the next node is 1', so the growing
    end moves from k to 1' (next to node 1), and a block stays joinable iff
    no earlier block reaches past its first node."""
    if turn:
        keep: list[int] = []
        reach = 0
        for y, b in enumerate(blocks):
            if b[0] > reach:
                keep.append(y)
            reach = max(reach, b[-1])
        return tuple(reversed(keep))
    if len(blocks[x]) == 1:
        return seen + (x,)
    return seen[: seen.index(x) + 1]


def _walk(
    nodes: tuple[int, ...], rule: GrowthRule, stop: int
) -> Iterator[tuple[list, list, tuple | None]]:
    """The live (labels, blocks, seen) of each admitted placement of the
    first ``stop`` nodes in order; the lists change as the walk goes on.
    Under a noncrossing rule ``seen`` holds the blocks the next node can
    join without a crossing, else it is None."""
    joins, opens, noncrossing = rule
    n = len(nodes)
    k = n // 2
    labels: list[int] = []
    blocks: list[list[int]] = []
    # one entry per depth: under a noncrossing rule seens[i] holds the
    # blocks node i can join uncrossed, else it stays [None]
    seens: list = [()] if noncrossing else [None]
    x = 0  # the next block to try for node len(labels); len(blocks) opens one
    while True:
        i = len(labels)
        seen = seens[-1]
        if i < stop:
            v = nodes[i]
            if seen is None:
                while x < len(blocks) and not joins(blocks, blocks[x], v):
                    x += 1
            else:
                while x < len(blocks) and not (x in seen and joins(blocks, blocks[x], v)):
                    x += 1
            if x < len(blocks) or x == len(blocks) and opens(blocks, v, n - i - 1):
                if x == len(blocks):
                    blocks.append([])
                blocks[x].append(v)
                labels.append(x)
                if seen is not None:
                    seens.append(_uncrossed(seen, blocks, x, i + 1 == k))
                x = 0
                continue
        else:
            yield labels, blocks, seen
        if not labels:
            return
        # backtrack: take the last node off and try its next block
        x = labels.pop()
        if seen is not None:
            seens.pop()
        b = blocks[x]
        b.pop()
        if not b:
            blocks.pop()
        x += 1


# ---------------------------------------------------------------------------
# products


def _side_by_side(a: PartitionDiagram, b: PartitionDiagram) -> list[int]:
    # labels of the tensor before relabelling: a's top, b's top, a's bottom,
    # b's bottom, with b's labels moved past a's
    k, m, shift = a.order, b.order, len(a.labels)
    moved = [x + shift for x in b.labels]
    return [*a.labels[:k], *moved[:m], *a.labels[k:], *moved[m:]]


@functools.lru_cache(maxsize=1 << 18)
def tensor(a: PartitionDiagram, b: PartitionDiagram) -> PartitionDiagram:
    """Horizontal concatenation: b shifted by order(a) and placed after a."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    return _diagram(_rgs(_side_by_side(a, b)))


def tensor_fold(factors: Iterable[PartitionDiagram]) -> PartitionDiagram:
    """The tensor product of the factors in order, relabelled once, so its
    cost is linear in the total order."""
    top: list[int] = []
    bottom: list[int] = []
    for f in factors:
        shift = len(top) + len(bottom)
        top.extend(x + shift for x in f.labels[: f.order])
        bottom.extend(x + shift for x in f.labels[f.order :])
    return _diagram(_rgs(top + bottom)) if top else EMPTY_DIAGRAM


def bullet(a: PartitionDiagram, b: PartitionDiagram) -> PartitionDiagram:
    """Near-concatenation: tensor, then merge the blocks of the two
    inner-facing bottom nodes.  The empty diagram acts as identity."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    labels = _side_by_side(a, b)
    inner = 2 * a.order + b.order  # slot of b's first bottom node
    old, new = labels[inner], labels[inner - 1]
    return _diagram(_rgs([new if x == old else x for x in labels]))


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
    k, shift = a.order, len(a.labels)
    # union-find over the labels: a's as they are, b's moved past a's
    parent = list(range(2 * shift))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.labels[k:], b.labels[:k]):
        parent[find(x)] = find(y + shift)
    outer = [find(x) for x in a.labels[:k]] + [find(y + shift) for y in b.labels[k:]]
    components = {find(x) for x in a.labels} | {find(y + shift) for y in b.labels}
    return _diagram(_rgs(outer)), len(components) - len(set(outer))


# ---------------------------------------------------------------------------
# cuts, factorisations, statistics

# Column c holds slots c - 1 and k + c - 1.  A block "crosses" position i
# when it has nodes in columns <= i and in columns > i.


def tensor_cuts(d: PartitionDiagram) -> list[int]:
    """Positions i with no block crossing the line between columns i, i+1."""
    # walking the columns, i is a cut iff no block seen so far reaches past it
    k, labels = d.order, d.labels
    last = [0] * len(labels)  # last column of each label
    for c, x, y in zip(range(1, k + 1), labels, labels[k:]):
        last[x] = last[y] = c
    cuts = []
    reach = 0
    for c, x, y in zip(range(1, k), labels, labels[k:]):
        if last[x] > reach:
            reach = last[x]
        if last[y] > reach:
            reach = last[y]
        if reach == c:
            cuts.append(c)
    return cuts


def is_tensor_irreducible(d: PartitionDiagram) -> bool:
    """True iff d is nonempty and admits no tensor cut."""
    return not d.is_empty() and not tensor_cuts(d)


def split(d: PartitionDiagram, cuts: list[int]) -> list[PartitionDiagram]:
    """The pieces of d between increasing cut positions, each relabelled: its
    tensor factors at its tensor cuts, its bullet factors at its bullet cuts.
    With no cut the one piece is d itself, already canonical."""
    if not cuts:
        return [d]
    k, labels = d.order, d.labels
    bounds = [0, *cuts, k]
    return [
        _diagram(_rgs(labels[lo:hi] + labels[k + lo : k + hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def regroupings(d: PartitionDiagram, cuts: list[int]) -> Iterator[tuple[int, PartitionDiagram]]:
    """(|C|, d with every block split at C) for each subset C of the given
    increasing cut positions, the empty one first; the word is
    ``tensor_fold(split(d, C))``.  The n-th piece takes its labels from d's
    moved past all of d's n times, so each word is one relabelling of slices."""
    k, labels = d.order, d.labels
    moved = [labels, *([x + n * len(labels) for x in labels] for n in range(1, len(cuts) + 1))]
    for chosen in product((False, True), repeat=len(cuts)):
        top, bottom, n, lo = [], [], 0, 0
        for c in compress(cuts, chosen):
            top += moved[n][lo:c]
            bottom += moved[n][k + lo : k + c]
            n, lo = n + 1, c
        top += moved[n][lo:k]
        bottom += moved[n][k + lo :]
        yield n, _diagram(_rgs(top + bottom)) if n else d


def tensor_factorize(d: PartitionDiagram) -> list[PartitionDiagram]:
    """The unique factorisation of a nonempty diagram into tensor-irreducible
    factors (split at every tensor cut)."""
    if d.is_empty():
        raise ValueError("the empty diagram has no tensor factorisation")
    return split(d, tensor_cuts(d))


def bullet_cuts(d: PartitionDiagram) -> list[int]:
    """Positions i where i' and (i+1)' share a block and that block is the
    only one crossing the line; exactly the positions of nonempty splits
    d = x . y under the bullet product."""
    return column_cuts(d)[1]


def column_cuts(d: PartitionDiagram) -> tuple[list[int], list[int]]:
    """d's tensor cuts and bullet cuts from one scan of its blocks' column
    spans: a line is crossed by the blocks whose span covers it, by none at
    a tensor cut and at a bullet cut by one, holding both bottom nodes
    beside the line."""
    k, labels = d.order, d.labels
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for c, x, y in zip(range(1, k + 1), labels, labels[k:]):
        if x not in first:
            first[x] = c
        if y not in first:
            first[y] = c
        last[x] = last[y] = c
    delta = [0] * (k + 1)  # the change in crossing blocks at each line
    for x, c in first.items():
        delta[c] += 1
        delta[last[x]] -= 1
    tensor_at: list[int] = []
    bullet_at: list[int] = []
    bottom = labels[k:]
    crossing = 0
    for i in range(1, k):
        crossing += delta[i]
        if not crossing:
            tensor_at.append(i)
        elif crossing == 1 and bottom[i - 1] == bottom[i]:
            bullet_at.append(i)
    return tensor_at, bullet_at


def bullet_decompose(d: PartitionDiagram) -> list[PartitionDiagram]:
    """The unique decomposition of a nonempty diagram into bullet-irreducible
    factors; its length is the statistic m(d)."""
    if d.is_empty():
        raise ValueError("the empty diagram has no bullet decomposition")
    return split(d, bullet_cuts(d))


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
    k = d.order
    return len(set(d.labels[:k]) & set(d.labels[k:]))
