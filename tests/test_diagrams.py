import random
from itertools import islice, product

import pytest
from family_oracle import count_diagrams

from parsym.diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet,
    bullet_cuts,
    bullet_decompose,
    bullet_fold,
    enumerate_diagrams,
    from_json_obj,
    identity_diagram,
    is_bullet_irreducible,
    is_tensor_irreducible,
    m_statistic,
    parse,
    propagation_number,
    render,
    tensor,
    tensor_cuts,
    tensor_factorize,
    tensor_fold,
    to_json_obj,
    vertical_compose,
)
from test_diagram_properties import tensor_cuts_oracle

D4 = parse("1,2,3/4/1',2'/3',4'")
ID1 = parse("1,1'")
SINGLETONS = parse("1/1'")


def brute_set_partitions(items):
    """Insert-the-last-element recursion; independent of the RGS generator."""
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for smaller in brute_set_partitions(rest):
        for i, subset in enumerate(smaller):
            yield smaller[:i] + [subset + [last]] + smaller[i + 1 :]
        yield smaller + [[last]]


def all_diagrams(k, max_order=None):
    return list(enumerate_diagrams(k, max_order))


def small_diagrams(max_order):
    out = []
    for k in range(max_order + 1):
        out.extend(all_diagrams(k))
    return out


class TestParseRender:
    def test_order_five_blocks(self):
        d = parse("5,5'/4'/1,2,3,4,3'/2'/1'")
        assert d.order == 5
        assert d.blocks == ((1, 2, 3, 4, -3), (5, -5), (-1,), (-2,), (-4,))

    def test_order_five_canonical_text(self):
        assert render(parse("5,5'/4'/1,2,3,4,3'/2'/1'")) == "1,2,3,4,3'/5,5'/1'/2'/4'"

    def test_empty(self):
        assert parse("()") is EMPTY_DIAGRAM or parse("()") == EMPTY_DIAGRAM
        assert render(EMPTY_DIAGRAM) == "()"

    def test_order_insensitive(self):
        assert parse("1'/1") == parse("1/1'")
        assert parse("2,2'/1,1'") == parse("1,1'/2,2'")

    def test_whitespace_ignored(self):
        assert parse(" 1 , 2 / 1' , 2' ") == parse("1,2/1',2'")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1,x'", "malformed token"),
            ("1,1,1'", "duplicate node 1"),
            ("1/1'/2", "missing node 2'"),
            ("0/0'", "malformed token"),
        ],
    )
    def test_errors_name_the_offender(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse(text)

    def test_round_trip_all_small_orders(self):
        for d in small_diagrams(3):
            assert parse(render(d)) == d

    def test_json_round_trip(self):
        for d in small_diagrams(2):
            obj = to_json_obj(d)
            assert from_json_obj(obj) == d
        assert to_json_obj(parse("1,1',2'/2")) == {
            "order": 2,
            "blocks": [[1, -1, -2], [2]],
        }


class TestEnumeration:
    def test_counts_match_brute_force(self):
        for k in range(4):
            nodes = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
            brute = {
                PartitionDiagram(k, [tuple(b) for b in blocks])
                for blocks in brute_set_partitions(nodes)
            }
            mine = all_diagrams(k)
            assert len(mine) == len(set(mine)) == len(brute)
            assert set(mine) == brute

    def test_labels_match_product_oracle(self):
        # every tuple over range(2k) that is a restricted growth string, in
        # lexicographic order
        def is_rgs(labels):
            opened = 0
            for x in labels:
                if x > opened:
                    return False
                opened = max(opened, x + 1)
            return True

        for k in range(4):
            expected = [t for t in product(range(2 * k), repeat=2 * k) if is_rgs(t)]
            assert [d.labels for d in enumerate_diagrams(k)] == expected

    def test_walk_is_lazy(self):
        # order 6 has 4,213,597 diagrams; the first three come at once
        assert [d.labels for d in islice(enumerate_diagrams(6), 3)] == [
            (0,) * 12,
            (0,) * 11 + (1,),
            (0,) * 10 + (1, 0),
        ]

    def test_order_one_stream(self):
        assert [render(d) for d in enumerate_diagrams(1)] == ["1,1'", "1/1'"]

    def test_rgs_lex_order_prefix(self):
        texts = [render(d) for d in enumerate_diagrams(2)]
        # first string groups everything, last one isolates everything
        assert texts[0] == "1,2,1',2'"
        assert texts[-1] == "1/2/1'/2'"
        assert len(texts) == 15

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            list(enumerate_diagrams(7))
        with pytest.raises(CapExceeded):
            list(enumerate_diagrams(3, max_order=2))

    def test_max_order_override(self):
        with pytest.raises(CapExceeded):
            list(enumerate_diagrams(3, max_order=2))
        assert len(all_diagrams(2, max_order=2)) == 15

    def test_count_shares_the_cap(self):
        def refusal(run, *args, **kwargs):
            with pytest.raises(CapExceeded) as info:
                run(*args, **kwargs)
            return str(info.value)

        assert refusal(count_diagrams, 7) == refusal(all_diagrams, 7)
        assert refusal(count_diagrams, 7) == "order 7 exceeds enumeration cap 6"
        assert refusal(count_diagrams, 3, max_order=2) == refusal(all_diagrams, 3, max_order=2)
        assert refusal(count_diagrams, 2, max_order=1) == refusal(all_diagrams, 2, max_order=1)
        assert count_diagrams(2, max_order=2) == len(all_diagrams(2, max_order=2)) == 15


class TestTensor:
    def test_identity_pair(self):
        assert tensor(ID1, ID1) == parse("1,1'/2,2'")

    def test_empty_is_unit(self):
        assert tensor(D4, EMPTY_DIAGRAM) == D4
        assert tensor(EMPTY_DIAGRAM, D4) == D4

    def test_shift_by_two(self):
        assert tensor(parse("1,2,1',2'"), SINGLETONS) == parse("1,2,1',2'/3/3'")

    def test_associative_exhaustive_order_two(self):
        pool = small_diagrams(2)
        for a in pool:
            for b in pool:
                for c in pool:
                    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    def test_associative_random_order_three(self):
        rng = random.Random(7)
        pool = small_diagrams(3)
        for _ in range(300):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
            assert tensor(a, b).order == a.order + b.order


class TestBullet:
    def test_short_products(self):
        assert bullet(ID1, SINGLETONS) == parse("1,1',2'/2")
        assert bullet(ID1, ID1) == parse("1,2,1',2'")

    def test_order_seven_product(self):
        a = parse("1,2/3,1'/2',3'")
        b = parse("1,2,3,1',3',4'/4,2'")
        assert render(bullet(a, b)) == "1,2/3,1'/4,5,6,2',3',4',6',7'/7,5'"

    def test_empty_convention(self):
        assert bullet(EMPTY_DIAGRAM, D4) == D4
        assert bullet(D4, EMPTY_DIAGRAM) == D4

    def test_associative_exhaustive_order_two(self):
        pool = small_diagrams(2)
        for a in pool:
            for b in pool:
                for c in pool:
                    assert bullet(bullet(a, b), c) == bullet(a, bullet(b, c))

    def test_associative_random_order_three(self):
        rng = random.Random(11)
        pool = small_diagrams(3)
        for _ in range(300):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert bullet(bullet(a, b), c) == bullet(a, bullet(b, c))

    def test_matching_associative_identities(self):
        # nonempty diagrams only: the empty-diagram conventions for the
        # bullet product do not interleave with tensor
        pool = [d for d in small_diagrams(2) if not d.is_empty()]
        for a in pool:
            for b in pool:
                for c in pool:
                    assert tensor(bullet(a, b), c) == bullet(a, tensor(b, c))
                    assert bullet(tensor(a, b), c) == tensor(a, bullet(b, c))


class TestVerticalComposition:
    def test_identity_idempotent(self):
        assert vertical_compose(ID1, ID1) == (ID1, 0)

    def test_singleton_loop(self):
        assert vertical_compose(SINGLETONS, SINGLETONS) == (SINGLETONS, 1)

    def test_permutation_composition(self):
        swap = parse("1,2'/2,1'")
        assert vertical_compose(identity_diagram(2), swap) == (swap, 0)
        assert vertical_compose(swap, swap) == (identity_diagram(2), 0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            vertical_compose(ID1, identity_diagram(2))

    def test_monoid_laws_random(self):
        rng = random.Random(5)
        pool = all_diagrams(3)
        ident = identity_diagram(3)
        for _ in range(200):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab, r1 = vertical_compose(a, b)
            left, r2 = vertical_compose(ab, c)
            bc, s1 = vertical_compose(b, c)
            right, s2 = vertical_compose(a, bc)
            assert left == right
            assert r1 + r2 == s1 + s2
            assert vertical_compose(ident, a) == (a, 0)
            assert vertical_compose(a, ident) == (a, 0)


class TestTensorCuts:
    def test_examples(self):
        assert tensor_cuts(parse("1,1'/2,2'")) == [1]
        assert tensor_cuts(D4) == []
        assert tensor_cuts(parse("1,2,1',2'/3/3'")) == [2]

    def test_matches_blocks_oracle_up_to_order_four(self):
        for d in small_diagrams(4):
            assert tensor_cuts(d) == tensor_cuts_oracle(d)

    def test_cut_iff_splits_brute_force(self):
        for k in range(1, 4):
            for d in all_diagrams(k):
                cuts = set(tensor_cuts(d))
                for i in range(1, k):
                    splits = any(
                        tensor(x, y) == d
                        for x in all_diagrams(i)
                        for y in all_diagrams(k - i)
                    )
                    assert (i in cuts) == splits


class TestTensorFactorize:
    def test_examples(self):
        assert tensor_factorize(parse("1,1'/2,2'")) == [ID1, ID1]
        assert tensor_factorize(D4) == [D4]
        assert tensor_factorize(parse("1,2,1',2'/3/3'")) == [
            parse("1,2,1',2'"),
            SINGLETONS,
        ]

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            tensor_factorize(EMPTY_DIAGRAM)

    def test_unique_factorization_bijection(self):
        # folding every word of irreducibles of total order k hits each
        # diagram exactly once (existence and uniqueness at once)
        irreducibles = {
            k: [d for d in all_diagrams(k) if is_tensor_irreducible(d)]
            for k in range(1, 5)
        }

        def words(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for head in irreducibles[first]:
                    for tail in words(total - first):
                        yield (head,) + tail

        for k in range(1, 5):
            folded = [tensor_fold(w) for w in words(k)]
            assert len(folded) == len(set(folded)) == len(all_diagrams(k))
            for d in all_diagrams(k):
                factors = tensor_factorize(d)
                assert tensor_fold(factors) == d
                assert all(is_tensor_irreducible(f) for f in factors)

    def test_irreducible_flags(self):
        assert is_tensor_irreducible(ID1)
        assert not is_tensor_irreducible(parse("1,1'/2,2'"))
        assert not is_tensor_irreducible(EMPTY_DIAGRAM)
        assert sum(1 for d in all_diagrams(2) if is_tensor_irreducible(d)) == 11


class TestBulletCuts:
    def test_examples(self):
        assert bullet_cuts(D4) == [3]
        assert bullet_cuts(parse("1/2/3/1',2',3'")) == [1, 2]
        assert bullet_cuts(parse("1,1'/2,2'")) == []

    def test_cut_iff_splits_brute_force(self):
        for k in range(1, 4):
            for d in all_diagrams(k):
                cuts = set(bullet_cuts(d))
                for i in range(1, k):
                    splits = any(
                        bullet(x, y) == d
                        for x in all_diagrams(i)
                        for y in all_diagrams(k - i)
                    )
                    assert (i in cuts) == splits


class TestBulletDecompose:
    def test_order_four_factors(self):
        theta1 = parse("1,2,3/1',2'/3'")
        assert bullet_decompose(D4) == [theta1, SINGLETONS]

    def test_single_factor(self):
        assert bullet_decompose(ID1) == [ID1]
        assert m_statistic(ID1) == 1

    def test_phi_image(self):
        assert bullet_decompose(parse("1/2/3/1',2',3'")) == [SINGLETONS, SINGLETONS, SINGLETONS]
        assert m_statistic(parse("1/2/3/1',2',3'")) == 3

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            bullet_decompose(EMPTY_DIAGRAM)

    def test_unique_decomposition_small_orders(self):
        for k in range(1, 4):
            for d in all_diagrams(k):
                factors = bullet_decompose(d)
                assert bullet_fold(factors) == d
                assert all(is_bullet_irreducible(f) for f in factors)
                assert len(factors) == m_statistic(d)
                # brute-force split count: the m-1 interior splits exactly
                interior = sum(
                    1
                    for i in range(1, k)
                    for x in all_diagrams(i)
                    for y in all_diagrams(k - i)
                    if bullet(x, y) == d
                )
                assert interior == m_statistic(d) - 1

    def test_bullet_product_preserves_irreducibility(self):
        # product of two nonempty diagrams is tensor-irreducible iff both are
        for ka in range(1, 4):
            for kb in range(1, 5 - ka):
                for a in all_diagrams(ka):
                    for b in all_diagrams(kb):
                        assert is_tensor_irreducible(bullet(a, b)) == (
                            is_tensor_irreducible(a) and is_tensor_irreducible(b)
                        )


class TestStatistics:
    def test_m_examples(self):
        assert m_statistic(EMPTY_DIAGRAM) == 0
        assert m_statistic(D4) == 2
        assert m_statistic(parse("1,2,1',2'")) == 2
        assert m_statistic(parse("1,2/1',2'")) == 1

    def test_propagation(self):
        assert propagation_number(parse("1,1'/2,2'")) == 2
        assert propagation_number(D4) == 0
        assert propagation_number(parse("1,1',2'/2")) == 1

    def test_diagram_immutable_and_hashable(self):
        d = parse("1,1'")
        with pytest.raises(AttributeError):
            d.order = 3
        assert len({d, parse("1,1'"), SINGLETONS}) == 2
