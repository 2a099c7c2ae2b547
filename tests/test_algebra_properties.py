"""The Hopf maps read off the bullet cuts, checked against the rebuilt-factor
formulas of ``hopf_oracle`` and against the Hopf axioms, on every diagram of
order <= 4 and on random words of order <= 8.

The random words come from three sources: random set partitions (mostly a
single generator with no bullet cut), tensor products of family members
(several generators), and chains of small pieces joined by random tensor
and bullet products (many bullet cuts, so many regroupings).  The axioms are
also checked on random homogeneous sums of such words of order 5-6.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hopf_oracle import antipode_oracle, e_basis_oracle, split_pairs_oracle
from test_diagram_properties import partitions
from test_families import member_products

from parsym import algebra, hopfcheck
from parsym.algebra import (
    PARSYM,
    ParSymElement,
    antipode,
    coproduct,
    counit,
    e_basis_expand,
    h,
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


@st.composite
def chains_of_order(draw, n):
    """Pieces of order 1-2 with orders summing to n, joined left to right by
    tensor or bullet products."""
    word = EMPTY_DIAGRAM
    while word.order < n:
        k, blocks = draw(partitions(1, min(2, n - word.order)))
        join = draw(st.sampled_from((tensor, bullet)))
        word = join(word, PartitionDiagram(k, blocks))
    return word


@st.composite
def homogeneous_sums(draw):
    """2-3 distinct words of one order 5-6, each with a coefficient in
    -3..3 other than 0."""
    n = draw(st.integers(5, 6))
    word = st.one_of(partitions(n, n).map(lambda p: PartitionDiagram(*p)), chains_of_order(n))
    coeff = st.integers(-3, 3).filter(bool)
    ds = draw(st.lists(word, min_size=2, max_size=3, unique=True))
    return ParSymElement({d: draw(coeff) for d in ds})


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


def _assert_coassociative(a):
    pairs = coproduct(a).terms.items()
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


def _assert_antipode_composites(a):
    # mul (S x id) Delta = unit counit = mul (id x S) Delta
    unit = counit(a) * ParSymElement.one()
    pairs = coproduct(a).terms.items()
    left, right = ParSymElement.zero(), ParSymElement.zero()
    for (x, y), coeff in pairs:
        left = left + coeff * (antipode(h(x)) * h(y))
        right = right + coeff * (h(x) * antipode(h(y)))
    assert left == unit == right


@PROPERTIES
@given(words)
def test_coassociativity(d):
    _assert_coassociative(h(d))


@PROPERTIES
@given(words)
def test_antipode_composites(d):
    _assert_antipode_composites(h(d))


@settings(PROPERTIES, max_examples=50)
@given(words.filter(lambda d: 5 <= d.order <= 6))
def test_takeuchi_beyond_harness_cap(d):
    # the axiom harness and takeuchi_antipode stop at degree 4, so this calls
    # the sum both run; single words of degree 5-6 cost at most some 30 ms,
    # most of this test's time goes to drawing them
    assert hopfcheck.takeuchi(PARSYM, h(d), d.order) == antipode(h(d))


@settings(PROPERTIES, max_examples=20)
@given(homogeneous_sums())
def test_axioms_on_homogeneous_sums(a):
    _assert_coassociative(a)
    _assert_antipode_composites(a)
    assert hopfcheck.takeuchi(PARSYM, a, PARSYM.homogeneous_degree(a)) == antipode(a)
