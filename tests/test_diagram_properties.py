"""Property tests of the label-string core against a blocks oracle.

Diagrams of orders 0-12 are drawn as random set partitions whose nodes and
blocks are shuffled before construction; the oracle works on plain blocks
and knows nothing of restricted growth strings.
"""

from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from parsym.diagrams import (
    PartitionDiagram,
    bullet,
    bullet_cuts,
    bullet_decompose,
    bullet_fold,
    column_cuts,
    from_json_obj,
    parse,
    regroupings,
    render,
    split,
    tensor,
    tensor_cuts,
    tensor_factorize,
    tensor_fold,
    to_json_obj,
)

PROPERTIES = settings(derandomize=True, max_examples=80, deadline=None)


def canonical(blocks):
    """Blocks sorted inside by node order, then by their minimal node."""
    key = lambda v: (v < 0, abs(v))  # noqa: E731
    return tuple(
        sorted((tuple(sorted(b, key=key)) for b in blocks), key=lambda b: key(b[0]))
    )


@st.composite
def partitions(draw, min_order=0, max_order=12):
    """(k, blocks) for a random set partition of 1..k, 1'..k', in random
    node and block order."""
    k = draw(st.integers(min_order, max_order))
    nodes = [*range(1, k + 1), *range(-1, -k - 1, -1)]
    ids = draw(st.lists(st.integers(0, 2 * k), min_size=2 * k, max_size=2 * k))
    grouped: dict[int, list[int]] = {}
    for v, i in zip(nodes, ids):
        grouped.setdefault(i, []).append(v)
    blocks = [draw(st.permutations(b)) for b in grouped.values()]
    return k, draw(st.permutations(blocks))


diagrams = partitions().map(lambda p: PartitionDiagram(*p))
nonempty = diagrams.filter(lambda d: d.order > 0)


def shifted(blocks, by):
    return [[v + by if v > 0 else v - by for v in b] for b in blocks]


def tensor_oracle(a, b):
    return canonical([*a.blocks, *shifted(b.blocks, a.order)])


def bullet_oracle(a, b):
    if not a.order or not b.order:
        return tensor_oracle(a, b)
    inner = (-a.order, -a.order - 1)
    blocks = [*a.blocks, *shifted(b.blocks, a.order)]
    merged = [v for blk in blocks if inner[0] in blk or inner[1] in blk for v in blk]
    rest = [blk for blk in blocks if inner[0] not in blk and inner[1] not in blk]
    return canonical([*rest, merged])


def crossing(block, i):
    columns = [abs(v) for v in block]
    return min(columns) <= i < max(columns)


def tensor_cuts_oracle(d):
    return [
        i for i in range(1, d.order) if not any(crossing(b, i) for b in d.blocks)
    ]


def bullet_cuts_oracle(d):
    cuts = []
    for i in range(1, d.order):
        crossers = [b for b in d.blocks if crossing(b, i)]
        if len(crossers) == 1 and -i in crossers[0] and -i - 1 in crossers[0]:
            cuts.append(i)
    return cuts


@PROPERTIES
@given(partitions())
def test_blocks_match_oracle(p):
    k, blocks = p
    d = PartitionDiagram(k, blocks)
    assert d.order == k
    assert d.blocks == canonical(blocks)
    assert d == PartitionDiagram(k, canonical(blocks))


@PROPERTIES
@given(diagrams)
def test_text_and_json_round_trips(d):
    assert parse(render(d)) == d
    assert from_json_obj(to_json_obj(d)) == d


@PROPERTIES
@given(diagrams, diagrams)
def test_products_match_oracle(a, b):
    assert tensor(a, b).blocks == tensor_oracle(a, b)
    assert bullet(a, b).blocks == bullet_oracle(a, b)


@PROPERTIES
@given(st.lists(diagrams, max_size=4))
def test_tensor_fold_matches_oracle(ds):
    blocks, order = [], 0
    for d in ds:
        blocks += shifted(d.blocks, order)
        order += d.order
    folded = tensor_fold(ds)
    assert (folded.order, folded.blocks) == (order, canonical(blocks))


@PROPERTIES
@given(diagrams)
def test_cuts_match_oracle(d):
    assert tensor_cuts(d) == tensor_cuts_oracle(d)
    assert bullet_cuts(d) == bullet_cuts_oracle(d)
    assert column_cuts(d) == (tensor_cuts_oracle(d), bullet_cuts_oracle(d))


@PROPERTIES
@given(diagrams, diagrams, diagrams)
def test_associativity(a, b, c):
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    assert bullet(bullet(a, b), c) == bullet(a, bullet(b, c))


@PROPERTIES
@given(diagrams, nonempty, diagrams)
def test_mixed_identity(a, b, c):
    assert bullet(tensor(a, b), c) == tensor(a, bullet(b, c))


@PROPERTIES
@given(nonempty)
def test_factorisation_round_trips(d):
    assert tensor_fold(tensor_factorize(d)) == d
    assert bullet_fold(bullet_decompose(d)) == d


@PROPERTIES
@given(diagrams, st.data())
def test_split_blocks_is_folded_split(d, data):
    positions = max(d.order - 1, 0)
    mask = data.draw(st.lists(st.booleans(), min_size=positions, max_size=positions))
    cuts = [i for i, chosen in enumerate(mask, 1) if chosen]
    # every subset C of the cuts, with its size, once
    expected = Counter(
        (r, tensor_fold(split(d, list(c))))
        for r in range(len(cuts) + 1)
        for c in combinations(cuts, r)
    )
    assert Counter(regroupings(d, cuts)) == expected
