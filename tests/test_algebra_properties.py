"""The Hopf maps read off the bullet cuts, checked against the rebuilt-factor
formulas of ``hopf_oracle`` and against the Hopf axioms, on every diagram of
order <= 4 and on random words of order <= 8.

The random words come from three sources: random set partitions (mostly a
single generator with no bullet cut), tensor products of family members
(several generators), and chains of small pieces joined by random tensor
and bullet products (many bullet cuts, so many regroupings).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hopf_oracle import antipode_oracle, e_basis_oracle, split_pairs_oracle
from test_diagram_properties import partitions
from test_families import member_products

from parsym import algebra
from parsym.algebra import (
    ParSymElement,
    antipode,
    coproduct,
    e_basis_expand,
    h,
    takeuchi_antipode,
)
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    PartitionDiagram,
    bullet,
    enumerate_diagrams,
    tensor,
)
from parsym.linear import LinearCombination

PROPERTIES = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def chains(draw):
    """Up to four pieces of order 1-2, joined left to right by tensor or
    bullet products."""
    word = EMPTY_DIAGRAM
    for k, blocks in draw(st.lists(partitions(1, 2), max_size=4)):
        join = draw(st.sampled_from((tensor, bullet)))
        word = join(word, PartitionDiagram(k, blocks))
    return word


words = st.one_of(
    partitions(0, 8).map(lambda p: PartitionDiagram(*p)),
    member_products().filter(lambda d: d.order <= 8),
    chains(),
)


def _matches_oracle(d):
    assert antipode(h(d)) == antipode_oracle(d)
    assert e_basis_expand(d) == e_basis_oracle(d)
    for pi in algebra._factors(d):
        assert list(algebra._generator_split_pairs(pi)) == split_pairs_oracle(pi)


def test_maps_match_oracle_to_order_four():
    for k in range(5):
        for d in enumerate_diagrams(k):
            _matches_oracle(d)


@PROPERTIES
@given(words)
def test_maps_match_oracle_on_random_words(d):
    _matches_oracle(d)


@PROPERTIES
@given(words)
def test_coassociativity(d):
    pairs = coproduct(h(d)).terms.items()
    left = LinearCombination(
        ((u, v, y), coeff * c)
        for (x, y), coeff in pairs
        for (u, v), c in coproduct(h(x)).terms.items()
    )
    right = LinearCombination(
        ((x, u, v), coeff * c)
        for (x, y), coeff in pairs
        for (u, v), c in coproduct(h(y)).terms.items()
    )
    assert left == right


@PROPERTIES
@given(words)
def test_antipode_composites(d):
    # mul (S x id) Delta = unit counit = mul (id x S) Delta
    unit = ParSymElement.zero() if d.order else ParSymElement.one()
    pairs = coproduct(h(d)).terms.items()
    left, right = ParSymElement.zero(), ParSymElement.zero()
    for (x, y), coeff in pairs:
        left = left + coeff * (antipode(h(x)) * h(y))
        right = right + coeff * (h(x) * antipode(h(y)))
    assert left == unit == right


@settings(PROPERTIES, max_examples=50)
@given(words.filter(lambda d: 5 <= d.order <= 6))
def test_takeuchi_beyond_harness_cap(d):
    # the axiom harness stops at degree 4; single words of degree 5-6 cost at
    # most some 30 ms, most of this test's time goes to drawing them
    assert takeuchi_antipode(h(d), max_degree=6) == antipode(h(d))
