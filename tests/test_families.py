import functools
from collections import Counter

import pytest
from family_oracle import (
    count_diagrams,
    family_member,
    irreducible_counts_by_transfer,
    oracle_member,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diagram_properties import partitions

from parsym.diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    enumerate_diagrams,
    is_bullet_irreducible,
    is_tensor_irreducible,
    m_statistic,
    parse,
    tensor,
    tensor_fold,
)
from parsym.families import (
    _RULES,
    Family,
    count_family,
    count_family_by_m,
    enumerate_family,
    family_counts,
)
from parsym.sequences import (
    boolean_transform,
    family_dimension,
    family_dimension_sequence,
    irreducible_count,
    irreducible_count_sequence,
)


def members(k, family):
    return list(enumerate_family(k, family))


class TestMembership:
    def test_crossing_pair_not_planar(self):
        assert not family_member(parse("1,2'/2,1'"), Family.PLANAR)

    def test_nested_pair_planar(self):
        assert family_member(parse("1,2'/2,1'") , Family.PERMUTATION)
        assert family_member(parse("1,1'/2,2'"), Family.PLANAR)

    def test_perfect_matching(self):
        assert family_member(parse("1,1'/2,2'"), Family.PERFECT_MATCHING)
        assert not family_member(parse("1,1',2'/2"), Family.PERFECT_MATCHING)

    def test_partial_permutation_pairs_propagate(self):
        assert family_member(parse("1,2'/2/1'"), Family.PARTIAL_PERMUTATION)
        assert not family_member(parse("1,2/1'/2'"), Family.PARTIAL_PERMUTATION)

    def test_empty_in_every_family(self):
        for family in Family:
            assert family_member(EMPTY_DIAGRAM, family)

    def test_matching_count_order_two(self):
        assert len(members(2, Family.MATCHING)) == 10


class TestCounts:
    @pytest.mark.parametrize(
        "family,expected",
        [
            (Family.PLANAR, [2, 14, 132]),
            (Family.MATCHING, [2, 10, 76]),
            (Family.PERFECT_MATCHING, [1, 3, 15]),
            (Family.PARTIAL_PERMUTATION, [2, 7, 34]),
            (Family.PERMUTATION, [1, 2, 6]),
        ],
    )
    def test_enumeration_matches_formula(self, family, expected):
        counts = [len(members(k, family)) for k in (1, 2, 3)]
        assert counts == expected
        assert counts == [family_dimension(family, k) for k in (1, 2, 3)]

    def test_composite_family_counts(self):
        # Temperley-Lieb, Motzkin and planar-rook dimensions
        assert [len(members(k, Family.PLANAR_PERFECT_MATCHING)) for k in (1, 2, 3)] == [1, 2, 5]
        assert [len(members(k, Family.PLANAR_MATCHING)) for k in (1, 2, 3)] == [2, 9, 51]
        assert [len(members(k, Family.PLANAR_PARTIAL_PERMUTATION)) for k in (1, 2, 3)] == [2, 6, 20]

    def test_all_family_is_everything(self):
        assert len(members(3, Family.ALL)) == 203


@functools.cache
def _walk_count(k, family, irreducible):
    return count_diagrams(k, rule=_RULES.get(family), irreducible=irreducible)


def _a6():
    # the paper's a_6 by enumeration, about 1.5 s
    return _walk_count(6, Family.ALL, True)


class TestCountFamily:
    """``count_family`` counts column by column over the open blocks; the
    oracle ``count_diagrams`` counts the same members on the rule's walk."""

    @pytest.mark.parametrize("family", list(Family))
    def test_equals_leaf_counts_to_order_five(self, family):
        for k in range(6):
            members = irreducible = 0
            for d in enumerate_family(k, family):
                members += 1
                irreducible += is_tensor_irreducible(d)
            assert count_family(k, family) == members
            assert count_family(k, family, irreducible=True) == irreducible

    @pytest.mark.parametrize("family", list(Family))
    def test_equals_walk_counts_to_order_six(self, family):
        for k in range(7):
            for irreducible in (False, True):
                walked = _walk_count(k, family, irreducible)
                assert count_family(k, family, irreducible=irreducible) == walked, (k, irreducible)

    @pytest.mark.parametrize("family", list(Family))
    def test_far_orders_equal_the_dimensions(self, family):
        # the paper's generator counts for every subalgebra, past the walk
        dims = family_dimension_sequence(family, 30)
        counted = [count_family(k, family, max_order=30) for k in range(1, 31)]
        assert counted == dims == family_counts(30, family)[1:]
        generators = [count_family(k, family, max_order=30, irreducible=True) for k in range(1, 31)]
        assert generators == boolean_transform(dims) == family_counts(30, family, irreducible=True)[1:]

    def test_shares_the_enumeration_cap(self):
        def refusal(*args, **kwargs):
            with pytest.raises(CapExceeded) as info:
                count_family(*args, **kwargs)
            return str(info.value)

        for family in Family:
            assert refusal(7, family) == "order 7 exceeds enumeration cap 6"
            assert refusal(7, family, irreducible=True) == "order 7 exceeds enumeration cap 6"
            assert refusal(3, family, max_order=2) == "order 3 exceeds enumeration cap 2"
            assert count_family(0, family) == 1
            assert count_family(0, family, irreducible=True) == 0

    @pytest.mark.parametrize("family", list(Family))
    def test_bullet_counts_equal_leaf_filters_to_order_five(self, family):
        # count --bullet-irreducible, alone and with --irreducible, and the
        # m tally of the tensor-irreducible members, against the leaves
        for k in range(6):
            leaves = list(enumerate_family(k, family))
            irreducible = [d for d in leaves if is_tensor_irreducible(d)]
            by_m = count_family_by_m(k, family, irreducible=True)
            assert by_m == dict(sorted(Counter(map(m_statistic, irreducible)).items()))
            assert by_m.get(1, 0) == sum(map(is_bullet_irreducible, irreducible))
            assert count_family_by_m(k, family).get(1, 0) == sum(map(is_bullet_irreducible, leaves))

    def test_order_six_generators(self):
        assert _a6() == irreducible_count(6) == 3663123

    def test_transfer_oracle(self):
        oracle = irreducible_counts_by_transfer(40)
        assert oracle == irreducible_count_sequence(40)
        walked = [_walk_count(k, Family.ALL, True) for k in range(1, 6)]
        assert oracle[:6] == [*walked, _a6()]
        assert family_counts(40, Family.ALL, irreducible=True)[1:] == oracle


class TestTensorClosure:
    def test_membership_preserved_by_tensor(self):
        levels = {k: list(enumerate_diagrams(k)) for k in range(1, 4)}
        for family in Family:
            for ka in range(1, 4):
                for kb in range(1, 5 - ka):
                    for a in levels[ka]:
                        if not family_member(a, family):
                            continue
                        for b in levels[kb]:
                            if family_member(b, family):
                                assert family_member(tensor(a, b), family)


class TestReplayAgainstOracle:
    """``family_member`` replays the growth rule; the oracle tests blocks."""

    @pytest.mark.parametrize("family", list(Family))
    def test_every_diagram_to_order_four(self, family):
        for k in range(5):
            for d in enumerate_diagrams(k):
                assert family_member(d, family) == oracle_member(d, family)

    def test_planar_order_five(self):
        # the walk keeps the uncrossed blocks as state; the oracle tests
        # every pair of blocks for a crossing
        members = []
        for d in enumerate_diagrams(5):
            planar = oracle_member(d, Family.PLANAR)
            assert family_member(d, Family.PLANAR) == planar
            if planar:
                members.append(d)
        assert list(enumerate_family(5, Family.PLANAR)) == members

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_random_diagrams_and_member_products(self, data):
        random_diagrams = partitions(5, 8).map(lambda p: PartitionDiagram(*p))
        d = data.draw(st.one_of(random_diagrams, member_products()))
        for family in Family:
            assert family_member(d, family) == oracle_member(d, family)


@functools.cache
def _members(k, family):
    return list(enumerate_family(k, family))


@st.composite
def member_products(draw):
    """The tensor product of random members of orders 1-3 of one family:
    a member of that family, and often a non-member of the others."""
    family = draw(st.sampled_from(list(Family)))
    orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return tensor_fold(draw(st.sampled_from(_members(k, family))) for k in orders)
