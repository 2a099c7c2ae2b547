import math
import random

import pytest
from family_oracle import (
    boolean_transform_by_compositions,
    boolean_transform_by_series,
    closed_form_dimension,
    double_factorial_odd,
    inverse_boolean_transform,
)

from parsym.diagrams import CapExceeded
from parsym.families import Family, count_family
from parsym.sequences import (
    GfReport,
    bell,
    bell_sequence,
    boolean_transform,
    compositions,
    even_bell_sequence,
    family_dimension,
    family_dimension_sequence,
    irreducible_count,
    irreducible_count_sequence,
    verify_gf_identity,
)

EVEN_BELL_7 = [2, 15, 203, 4140, 115975, 4213597, 190899322]
A_SEQUENCE_7 = [2, 11, 151, 3267, 96663, 3663123, 171131871]


def brute_partition_count(n):
    counts = 0

    def rec(i, mx):
        nonlocal counts
        if i == n:
            counts += 1
            return
        for v in range(mx + 2):
            rec(i + 1, mx if v <= mx else v)

    if n == 0:
        return 1
    rec(0, -1)
    return counts


class TestBell:
    def test_small_values_brute_force(self):
        for n in range(11):
            assert bell(n) == brute_partition_count(n)

    def test_degree_six_dimension(self):
        assert bell(12) == brute_partition_count(12) == 4213597

    def test_sequences(self):
        assert bell_sequence(5) == [1, 2, 5, 15, 52]
        assert even_bell_sequence(7) == EVEN_BELL_7
        assert even_bell_sequence(60) == bell_sequence(120)[1::2]

    def test_binomial_recurrence(self):
        # B_{n+1} = sum_j C(n, j) B_j, independent of the Bell triangle
        values = [1]
        for n in range(120):
            values.append(sum(math.comb(n, j) * values[j] for j in range(n + 1)))
        assert [bell(n) for n in range(121)] == values
        assert bell_sequence(120) == values[1:]


class TestCompositions:
    def test_counts(self):
        for n in range(1, 9):
            assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)
        assert list(compositions(0)) == [()]

    def test_iteration_limit(self):
        # the kernel's budget: 2^REGROUPING_CUT_CAP compositions at n = 20
        assert sum(1 for _ in compositions(20)) == 524_288
        with pytest.raises(CapExceeded, match=r"^direct composition iteration capped at n = 20$"):
            list(compositions(21))


class TestBooleanTransform:
    def test_even_bell_gives_generator_counts(self):
        assert boolean_transform(EVEN_BELL_7) == A_SEQUENCE_7

    def test_point_sequence_alternates(self):
        assert boolean_transform([1, 0, 0, 0, 0]) == [1, -1, 1, -1, 1]
        assert inverse_boolean_transform([1, -1, 1, -1, 1]) == [1, 0, 0, 0, 0]

    def test_factorials_give_indecomposable_permutations(self):
        factorials = [math.factorial(k) for k in range(1, 6)]
        assert boolean_transform(factorials) == [1, 1, 3, 13, 71]

    def test_three_routes_agree(self):
        rng = random.Random(101)
        samples = [EVEN_BELL_7, [math.factorial(k) for k in range(1, 8)]]
        samples += [[rng.randint(-9, 9) for _ in range(7)] for _ in range(20)]
        for terms in samples:
            by_convolution = boolean_transform(terms)
            assert by_convolution == boolean_transform_by_compositions(terms)
            assert by_convolution == boolean_transform_by_series(terms)

    def test_round_trip(self):
        rng = random.Random(202)
        samples = [EVEN_BELL_7, [math.factorial(k) for k in range(1, 8)]]
        samples += [[rng.randint(-9, 9) for _ in range(7)] for _ in range(20)]
        for terms in samples:
            assert inverse_boolean_transform(boolean_transform(terms)) == list(terms)
            assert boolean_transform(inverse_boolean_transform(terms)) == list(terms)


def brute_indecomposable_matchings(n):
    """Perfect matchings of [2n] with no proper closed even prefix."""

    def matchings(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for i, other in enumerate(rest):
            for tail in matchings(rest[:i] + rest[i + 1 :]):
                yield [(first, other)] + tail

    count = 0
    for matching in matchings(list(range(1, 2 * n + 1))):
        decomposable = any(
            all((a <= 2 * j) == (b <= 2 * j) for a, b in matching)
            for j in range(1, n)
        )
        if not decomposable:
            count += 1
    return count


class TestBrauerGeneratorSequence:
    def test_transform_of_odd_double_factorials(self):
        odd = [double_factorial_odd(k) for k in range(1, 6)]
        assert odd == [1, 3, 15, 105, 945]
        assert boolean_transform(odd) == [1, 2, 10, 74, 706]

    def test_independent_indecomposable_matching_count(self):
        assert [brute_indecomposable_matchings(n) for n in range(1, 6)] == [
            1,
            2,
            10,
            74,
            706,
        ]


class TestIrreducibleCount:
    def test_first_values(self):
        assert irreducible_count(1) == 2
        assert irreducible_count(2) == 11
        assert irreducible_count(7) == 171131871

    def test_equals_transform_of_dimensions(self):
        assert irreducible_count_sequence(7) == boolean_transform(EVEN_BELL_7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            irreducible_count(0)


class TestSeries:
    def test_gf_identity_passes(self):
        report = verify_gf_identity(7)
        assert report.equal
        assert report.first_mismatch is None
        assert list(report.lhs) == [0] + A_SEQUENCE_7

    def test_gf_identity_order_one(self):
        report = verify_gf_identity(1)
        assert report.equal
        assert report.lhs[1] == 2

    def test_perturbed_side_fails_at_two(self):
        report = GfReport(3, (0, 2, 12, 151), verify_gf_identity(3).rhs)
        assert report.first_mismatch == 2


class TestFamilyDimensions:
    def test_examples(self):
        assert family_dimension(Family.PLANAR, 2) == 14
        assert family_dimension(Family.PERFECT_MATCHING, 3) == 15
        assert family_dimension(Family.PARTIAL_PERMUTATION, 2) == 7
        assert family_dimension(Family.ALL, 2) == 15

    def test_sequences(self):
        assert family_dimension_sequence(Family.PERMUTATION, 4) == [1, 2, 6, 24]

    def test_planar_composite_formulas(self):
        # Temperley-Lieb: Catalan C_k; Motzkin: M_2k; planar rook: binom(2k, k)
        assert family_dimension_sequence(Family.PLANAR_PERFECT_MATCHING, 6) == [1, 2, 5, 14, 42, 132]
        assert family_dimension_sequence(Family.PLANAR_MATCHING, 6) == [2, 9, 51, 323, 2188, 15511]
        assert family_dimension_sequence(Family.PLANAR_PARTIAL_PERMUTATION, 6) == [2, 6, 20, 70, 252, 924]
        for family in (
            Family.PLANAR_PERFECT_MATCHING,
            Family.PLANAR_MATCHING,
            Family.PLANAR_PARTIAL_PERMUTATION,
        ):
            assert family_dimension_sequence(family, 6) == [count_family(k, family) for k in range(1, 7)]

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError, match="k must be positive"):
            family_dimension(Family.ALL, 0)

    @pytest.mark.parametrize(
        "family",
        [
            Family.ALL,
            Family.PERMUTATION,
            Family.PLANAR,
            Family.MATCHING,
            Family.PERFECT_MATCHING,
            Family.PARTIAL_PERMUTATION,
            Family.PLANAR_PERFECT_MATCHING,
            Family.PLANAR_MATCHING,
            Family.PLANAR_PARTIAL_PERMUTATION,
        ],
    )
    def test_one_pass_sequence_equals_closed_form(self, family):
        expected = [closed_form_dimension(family, k) for k in range(1, 121)]
        assert family_dimension_sequence(family, 120) == expected
        assert family_dimension(family, 120) == expected[-1]
