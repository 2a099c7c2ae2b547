import functools
import zlib
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from family_oracle import (
    all_pieces_closure_oracle,
    count_diagrams,
    family_member,
    is_primitive_basis_diagram,
    m_counts_by_series,
    oracle_member,
)
from hopf_oracle import closure_oracle

from parsym import closures, families
from parsym.closures import (
    closure_report,
    family_generator_counts,
    m_distribution,
)
from parsym.diagrams import (
    CapExceeded,
    GrowthRule,
    bullet_cuts,
    enumerate_diagrams,
    is_tensor_irreducible,
    m_statistic,
    render,
    split,
    tensor_cuts,
)
from parsym.families import Family, enumerate_family
from parsym.sequences import (
    boolean_transform,
    family_dimension,
    family_dimension_sequence,
)

CLOSURE_FAMILIES = [
    Family.PERMUTATION,
    Family.PLANAR,
    Family.MATCHING,
    Family.PERFECT_MATCHING,
    Family.PARTIAL_PERMUTATION,
    Family.PLANAR_PERFECT_MATCHING,
    Family.PLANAR_MATCHING,
    Family.PLANAR_PARTIAL_PERMUTATION,
]

FORMULA_FAMILIES = [
    Family.PERMUTATION,
    Family.PLANAR,
    Family.MATCHING,
    Family.PERFECT_MATCHING,
    Family.PARTIAL_PERMUTATION,
]


class TestClosureReports:
    @pytest.mark.parametrize("family", CLOSURE_FAMILIES)
    def test_degree_three_closure(self, family):
        report = closure_report(family, 3)
        assert report.all_passed
        assert report.counterexample is None
        assert sorted(report.checks) == [1, 2, 3]

    def test_all_family_trivially_closed(self):
        assert closure_report(Family.ALL, 3).all_passed

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            closure_report(Family.ALL, 6)
        with pytest.raises(CapExceeded):
            closure_report(Family.PERMUTATION, 6)

    def test_perfect_matchings_irreducibles_all_primitive(self):
        for k in (1, 2, 3):
            for d in enumerate_family(k, Family.PERFECT_MATCHING):
                if is_tensor_irreducible(d):
                    assert is_primitive_basis_diagram(d)

    def test_primitive_counts_recorded(self):
        report = closure_report(Family.PERFECT_MATCHING, 3)
        counts = {k: c.primitive_count for k, c in report.checks.items()}
        assert counts == {1: 1, 2: 2, 3: 10}


# non-closed rules: "every block holds a top node" loses the bottom-only
# block of a coproduct leg; "at most one block of two or more nodes" loses
# the tensor square of a member
EVERY_BLOCK_TOPPED = GrowthRule(lambda blocks, b, v: True, lambda blocks, v, left: v > 0)
ONE_LARGE_BLOCK = GrowthRule(
    lambda blocks, b, v: len(b) > 1 or all(len(c) == 1 for c in blocks)
)


def seeded_rule(seed: int) -> GrowthRule:
    """A fake growth rule that refuses a node by a hash of its position
    (odd seeds, rarely closed) or only of its side and block (even seeds,
    often closed), at one of three rates."""

    def admits(*features):
        return zlib.crc32(repr((seed, *features)).encode()) % 100 >= (5, 20, 40)[seed % 3]

    if seed % 2:
        return GrowthRule(
            lambda blocks, b, v: admits(v, len(b), len(blocks), b[-1]),
            lambda blocks, v, left: admits(v, len(blocks), left),
        )
    return GrowthRule(lambda blocks, b, v: admits(v > 0, len(b), b[0] > 0))


@functools.cache
def _planar_diagrams(k: int) -> frozenset:
    return frozenset(d for d in enumerate_diagrams(k) if oracle_member(d, Family.PLANAR))


class TestNoncrossingFlag:
    """A diagram is planar iff each prefix of it is, so the flag on any rule
    keeps exactly the planar diagrams that rule admits, in the same order."""

    @pytest.mark.parametrize("seed", range(50))
    def test_flag_filters_planar(self, monkeypatch, seed):
        rule = seeded_rule(seed)
        flagged = rule._replace(noncrossing=True)
        monkeypatch.setitem(families._RULES, Family.PLANAR, flagged)
        for k in range(5):
            admitted = list(enumerate_diagrams(k, rule=rule))
            planar = [d for d in admitted if d in _planar_diagrams(k)]
            assert list(enumerate_diagrams(k, rule=flagged)) == planar, k
            assert count_diagrams(k, rule=flagged) == len(planar), k
            irreducible = sum(is_tensor_irreducible(d) for d in planar)
            assert count_diagrams(k, rule=flagged, irreducible=True) == irreducible, k
            # the replay keeps the same state as the walk; it refuses what
            # the rule refuses
            assert all(
                family_member(d, Family.PLANAR) == (d in _planar_diagrams(k)) for d in admitted
            ), k


class TestCertificate:
    @pytest.mark.parametrize("family", list(Family))
    def test_agrees_with_oracle(self, family):
        degree = 3 if family in (Family.ALL, Family.PLANAR) else 4
        report, oracle = closure_report(family, degree), closure_oracle(family, degree)
        assert report.checks == oracle.checks
        assert report.all_passed and oracle.all_passed

    @pytest.mark.parametrize(
        "rule, counterexample",
        [
            (EVERY_BLOCK_TOPPED, ("1,1',2'/2", "coproduct")),
            (ONE_LARGE_BLOCK, ("1,1'/2,2'", "tensor")),
        ],
    )
    def test_fake_rules_fail(self, monkeypatch, rule, counterexample):
        monkeypatch.setitem(families._RULES, Family.PLANAR, rule)
        report = closure_report(Family.PLANAR, 3)
        assert not report.all_passed
        d, check = report.counterexample
        assert (render(d), check) == counterexample
        assert not report.checks[3].passed
        assert not closure_oracle(Family.PLANAR, 3).all_passed

    def test_agrees_with_all_pieces_oracle_on_seeded_rules(self, monkeypatch):
        outcomes = set()
        for seed in range(50):
            monkeypatch.setitem(families._RULES, Family.PLANAR, seeded_rule(seed))
            report = closure_report(Family.PLANAR, 3)
            oracle = all_pieces_closure_oracle(Family.PLANAR, 3)
            assert report.checks == oracle.checks, seed
            assert report.counterexample == oracle.counterexample, seed
            outcomes.add(report.counterexample and report.counterexample[1])
        assert outcomes == {None, "tensor", "coproduct"}

    @pytest.mark.parametrize("family", list(Family))
    def test_agrees_with_all_pieces_oracle_at_the_cap(self, family):
        # the oracle replays the rule on every piece; the report looks its
        # two legs up among the lower-order members of its own walks
        report, oracle = closure_report(family, 5), all_pieces_closure_oracle(family, 5)
        assert report.checks == oracle.checks
        assert report.counterexample == oracle.counterexample

    @pytest.mark.parametrize(
        "rule, degree, walks, mismatch",
        [
            (families._RULES[Family.PLANAR], 4, 4, None),  # closed
            (seeded_rule(1), 3, 3, 2),  # order 2's members are kept
            (seeded_rule(45), 3, 4, 3),  # the top order's are walked again
        ],
    )
    def test_one_walk_per_degree(self, monkeypatch, rule, degree, walks, mismatch):
        calls = []

        def counted(k, family):
            calls.append(k)
            return enumerate_family(k, family)

        monkeypatch.setitem(families._RULES, Family.PLANAR, rule)
        monkeypatch.setattr(closures, "enumerate_family", counted)
        report = closure_report(Family.PLANAR, degree)
        assert len(calls) == walks, calls
        # the first failing degree, a count mismatch with a missing product
        assert next((k for k, c in report.checks.items() if not c.passed), None) == mismatch
        assert mismatch is None or report.counterexample[1] == "tensor"

    def test_certified_degrees_are_antipode_closed(self, monkeypatch):
        # a graded connected sub-bialgebra is closed under the antipode
        certified = 0
        for seed in range(50):
            monkeypatch.setitem(families._RULES, Family.PLANAR, seeded_rule(seed))
            report = closure_report(Family.PLANAR, 3)
            oracle = closure_oracle(Family.PLANAR, 3)
            for k, c in report.checks.items():
                assert c.antipode_closed == c.delta_closed
                if c.tensor_closed and c.delta_closed:
                    certified += 1
                    assert oracle.checks[k].antipode_closed, (seed, k)
        assert certified == 106

    def test_generator_pieces_are_lower_order_pieces(self):
        # the argument behind checking two legs per generator: its longest
        # prefix and suffix are generators with its own cuts, and each piece
        # between two bounds is a prefix of the suffix at its lower bound
        pieces = 0
        for k in range(1, 6):
            for d in enumerate_diagrams(k):
                if tensor_cuts(d):
                    continue
                cuts = bullet_cuts(d)
                if cuts:
                    prefix, suffix = split(d, cuts[-1:])[0], split(d, cuts[:1])[1]
                    assert is_tensor_irreducible(prefix) and is_tensor_irreducible(suffix)
                    assert bullet_cuts(prefix) == cuts[:-1]
                    assert bullet_cuts(suffix) == [c - cuts[0] for c in cuts[1:]]
                for lo, hi in combinations([0, *cuts, k], 2):
                    if (lo, hi) != (0, k):
                        assert split(d, [lo, hi])[1] == split(split(d, [lo])[1], [hi - lo])[0]
                        pieces += 1
        assert pieces == 37_004

    @pytest.mark.parametrize(
        "family",
        [
            Family.PERMUTATION,
            Family.PERFECT_MATCHING,
            Family.PARTIAL_PERMUTATION,
            Family.PLANAR_PERFECT_MATCHING,
            Family.PLANAR_PARTIAL_PERMUTATION,
        ],
    )
    def test_degree_five_generators_all_primitive(self, family):
        report = closure_report(family, 5)
        assert report.all_passed
        primitive = [c.primitive_count for c in report.checks.values()]
        assert primitive == family_generator_counts(family, 5)

    @pytest.mark.parametrize("family, degree", [(Family.PLANAR, 5), (Family.ALL, 4)])
    def test_bullet_closed_primitives(self, family, degree):
        # a generator is the bullet product of primitive generators
        report = closure_report(family, degree)
        assert report.all_passed
        primitive = [c.primitive_count for c in report.checks.values()]
        assert primitive == boolean_transform(family_generator_counts(family, degree))


class TestGeneratorCounts:
    def test_named_sequences(self):
        assert family_generator_counts(Family.PERMUTATION, 4) == [1, 1, 3, 13]
        assert family_generator_counts(Family.PERFECT_MATCHING, 4) == [1, 2, 10, 74]
        assert family_generator_counts(Family.ALL, 4) == [2, 11, 151, 3267]

    @pytest.mark.parametrize("family", FORMULA_FAMILIES)
    def test_counts_are_boolean_transform_of_dimensions(self, family):
        counts = family_generator_counts(family, 4)
        dims = family_dimension_sequence(family, 4)
        assert counts == boolean_transform(dims)

    @pytest.mark.parametrize("family", list(Family))
    def test_members_in_enumeration_order(self, family):
        for k in range(5):
            assert list(enumerate_family(k, family)) == [
                d for d in enumerate_diagrams(k) if oracle_member(d, family)
            ]

    def test_point_families_past_enumeration_sizes(self):
        assert family_generator_counts(Family.PERMUTATION, 5)[-1] == 71
        assert family_generator_counts(Family.PERFECT_MATCHING, 5)[-1] == 706

    def test_planar_order_five(self):
        assert family_generator_counts(Family.PLANAR, 5) == boolean_transform(
            [family_dimension(Family.PLANAR, k) for k in range(1, 6)]
        )

    @pytest.mark.parametrize(
        "family, dimension",
        [
            # Temperley-Lieb: Catalan numbers
            (Family.PLANAR_PERFECT_MATCHING, lambda k: comb(2 * k, k) // (k + 1)),
            # Motzkin: the even Motzkin numbers M_2k = 2, 9, 51, 323, 2188, 15511
            (
                Family.PLANAR_MATCHING,
                lambda k: sum(
                    comb(2 * k, 2 * j) * comb(2 * j, j) // (j + 1)
                    for j in range(k + 1)
                ),
            ),
            # planar rook: central binomial coefficients
            (Family.PLANAR_PARTIAL_PERMUTATION, lambda k: comb(2 * k, k)),
        ],
    )
    def test_planar_composites_to_order_six(self, family, dimension):
        dims = [dimension(k) for k in range(1, 7)]
        assert family_generator_counts(family, 6) == boolean_transform(dims)

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            family_generator_counts(Family.PLANAR_MATCHING, 7)
        with pytest.raises(CapExceeded):
            family_generator_counts(Family.PERMUTATION, 7)


class TestMDistribution:
    def test_order_one(self):
        assert m_distribution(1, Family.ALL) == {1: 2}

    def test_order_two_sums_to_dimension(self):
        hist = m_distribution(2, Family.ALL)
        assert sum(hist.values()) == 15
        assert hist == {1: 11, 2: 4}
        # the m = 2 bucket is exactly the diagrams with a bullet cut
        from parsym.diagrams import bullet_cuts

        assert hist[2] == sum(
            1 for d in enumerate_diagrams(2) if bullet_cuts(d)
        )

    def test_permutations_are_bullet_irreducible(self):
        assert m_distribution(2, Family.PERMUTATION) == {1: 2}

    def test_sum_matches_family_dimension(self):
        for family in FORMULA_FAMILIES:
            for k in (1, 2, 3):
                assert sum(m_distribution(k, family).values()) == family_dimension(
                    family, k
                )

    @pytest.mark.parametrize("family", list(Family))
    def test_equals_leaf_tally_to_order_five(self, family):
        for k in range(6):
            leaves = Counter(m_statistic(d) for d in enumerate_family(k, family))
            assert m_distribution(k, family) == dict(sorted(leaves.items()))

    def test_series_oracle_to_order_five(self):
        for k in range(1, 6):
            assert m_counts_by_series(k) == m_distribution(k, Family.ALL)

    def test_cap_refusal(self):
        # the enumeration cap, which max_order lifts
        with pytest.raises(CapExceeded, match="order 7 exceeds enumeration cap 6"):
            m_distribution(7, Family.ALL)
        assert m_distribution(2, Family.ALL, max_order=2) == {1: 11, 2: 4}
        with pytest.raises(CapExceeded):
            m_distribution(2, Family.ALL, max_order=1)
