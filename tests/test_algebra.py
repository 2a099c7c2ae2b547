import functools
import operator
import random
import tracemalloc
from collections import Counter, OrderedDict

import pytest
from hopf_oracle import (
    _det_bareiss,
    coproduct_pairs_oracle,
    split_pairs_oracle,
    takeuchi_oracle,
    verify_axioms_oracle,
)

from parsym.algebra import (
    PARSYM,
    DiagramTensor,
    ParSymElement,
    antipode,
    character_zeta,
    coproduct,
    counit,
    e_basis_expand,
    e_h_matrix,
    h,
    takeuchi_antipode,
    verify_hopf_axioms,
)
from parsym import algebra, cli, diagrams, hopfcheck, linear
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet,
    column_cuts,
    enumerate_diagrams,
    identity_diagram,
    is_tensor_irreducible,
    m_statistic,
    parse,
    render,
    tensor,
    tensor_factorize,
    tensor_fold,
)
from parsym.linear import FreeHopf
from parsym.nsym import NSYM, nsym_coproduct, nsym_h

D4 = parse("1,2,3/4/1',2'/3',4'")
D4_LEFT = parse("1,2,3/1',2'/3'")
SINGLETONS = parse("1/1'")
ID1 = parse("1,1'")


def all_diagrams(k):
    return list(enumerate_diagrams(k))


def basis_up_to(n):
    out = []
    for k in range(n + 1):
        out.extend(all_diagrams(k))
    return out


class TestProduct:
    def test_basis_product(self):
        assert h(ID1) * h(ID1) == h(parse("1,1'/2,2'"))

    def test_bilinearity(self):
        assert (2 * h(ID1)) * (3 * h(SINGLETONS)) == 6 * h(parse("1,1'/2/2'"))

    def test_unit_law(self):
        rng = random.Random(3)
        pool = basis_up_to(3)
        for _ in range(20):
            x = rng.randint(-4, 4) * h(rng.choice(pool)) + h(rng.choice(pool))
            assert ParSymElement.one() * x == x == x * ParSymElement.one()

    def test_grading_additive(self):
        for a in all_diagrams(2):
            for b in all_diagrams(1):
                (word,) = (h(a) * h(b)).terms
                assert word.order == 3


class TestCoproduct:
    def test_order_four_splits(self):
        expected = DiagramTensor(
            {
                (D4, EMPTY_DIAGRAM): 1,
                (D4_LEFT, SINGLETONS): 1,
                (EMPTY_DIAGRAM, D4): 1,
            }
        )
        assert coproduct(h(D4)) == expected

    def test_unit_grouplike(self):
        assert coproduct(ParSymElement.one()) == DiagramTensor.one()

    def test_primitive_iff_m_one(self):
        for d in basis_up_to(4):
            if not is_tensor_irreducible(d):
                continue
            primitive = coproduct(h(d)) == DiagramTensor(
                {(d, EMPTY_DIAGRAM): 1, (EMPTY_DIAGRAM, d): 1}
            )
            assert primitive == (m_statistic(d) == 1)

    def test_bidegrees_sum_to_order(self):
        for d in basis_up_to(3):
            for left, right in coproduct(h(d)).terms:
                assert left.order + right.order == d.order

    def test_split_pairs_match_oracle_up_to_order_three(self):
        for d in basis_up_to(3):
            if is_tensor_irreducible(d):
                assert coproduct(h(d)).terms == dict.fromkeys(coproduct_pairs_oracle(d), 1)

    def test_split_pairs_match_oracle_order_four(self):
        for d in all_diagrams(4):
            if is_tensor_irreducible(d):
                assert coproduct(h(d)).terms == dict.fromkeys(coproduct_pairs_oracle(d), 1)

    def test_split_pairs_match_oracle_order_five_sample(self):
        # random generators, most with no bullet cut, and bullet products
        # of random generators of complementary orders, which have one
        rng = random.Random(5)
        irreducible = {
            k: [d for d in all_diagrams(k) if is_tensor_irreducible(d)] for k in range(1, 5)
        }
        sample = []
        while len(sample) < 200:
            blocks = {}
            for v in (*range(1, 6), *range(-1, -6, -1)):
                blocks.setdefault(rng.randrange(10), []).append(v)
            d = PartitionDiagram(5, blocks.values())
            if is_tensor_irreducible(d):
                sample.append(d)
        for _ in range(200):
            i = rng.randint(1, 4)
            sample.append(bullet(rng.choice(irreducible[i]), rng.choice(irreducible[5 - i])))
        for d in sample:
            assert coproduct(h(d)).terms == dict.fromkeys(coproduct_pairs_oracle(d), 1)

    def test_oracle_examples(self):
        assert coproduct_pairs_oracle(SINGLETONS) == [
            (EMPTY_DIAGRAM, SINGLETONS),
            (SINGLETONS, EMPTY_DIAGRAM),
        ]
        pairs = coproduct_pairs_oracle(parse("1,1',2'/2"))
        assert (ID1, SINGLETONS) in pairs
        assert len(pairs) == 3

    def test_oracle_cap(self):
        with pytest.raises(CapExceeded):
            coproduct_pairs_oracle(D4, max_order=3)
        with pytest.raises(CapExceeded):
            coproduct_pairs_oracle(parse("1,2,3,4,5,6,1',2',3',4',5',6'"))

    def test_oracle_rejects_reducible(self):
        with pytest.raises(ValueError):
            coproduct_pairs_oracle(parse("1,1'/2,2'"))

    def test_coproduct_cut_choice_cap(self):
        # 20 order-1 factors, each with two splits: 2^20 cut choices, refused
        # by the kernel before any product, with the text op coproduct prints
        word = tensor_fold([ID1, SINGLETONS] * 10)
        with pytest.raises(CapExceeded, match=r"^1048576 coproduct cut choices exceed the cap 2\^19$"):
            coproduct(h(word))

    def test_one_generator_cut_choice_cap(self, monkeypatch):
        # a one-generator word is its generator's image, still refused past
        # the cap: three bullet cuts and one part of 4 give 5 split pairs each
        monkeypatch.setattr(linear, "REGROUPING_CUT_CAP", 2)
        PARSYM.coproduct_word.cache_clear()
        NSYM.coproduct_word.cache_clear()
        message = r"^5 coproduct cut choices exceed the cap 2\^2$"
        with pytest.raises(CapExceeded, match=message):
            coproduct(h(parse("1,2,3,4,1',2',3',4'")))
        with pytest.raises(CapExceeded, match=message):
            nsym_coproduct(nsym_h((4,)))


def _direct_coproduct(pi):
    """Delta of a generator from its bullet-folded split pairs."""
    return DiagramTensor(dict.fromkeys(split_pairs_oracle(pi), 1))


class TestKernel:
    def test_repeated_generator_built_once(self):
        # a fresh kernel on ParSym's generators, its generator map counting calls
        calls = Counter()

        def coproduct_generator(pi):
            calls[pi] += 1
            return _direct_coproduct(pi)

        fields = PARSYM._asdict()
        del fields["coproduct_word"], fields["antipode_word"]
        hopf = FreeHopf.on_generators(algebra._factors, coproduct_generator, algebra._antipode_word, **fields)
        word = tensor_fold([D4, SINGLETONS, D4, D4, SINGLETONS])
        assert hopf.coproduct_word(word) == coproduct(h(word))
        assert calls == {D4: 1, SINGLETONS: 1}
        assert hopf.coproduct_word(tensor(SINGLETONS, D4)) == coproduct(h(tensor(SINGLETONS, D4)))
        assert calls == {D4: 1, SINGLETONS: 1}

    def test_words_are_products_of_direct_generator_coproducts(self):
        for d in basis_up_to(4)[1:]:
            expected = functools.reduce(operator.mul, map(_direct_coproduct, tensor_factorize(d)))
            assert coproduct(h(d)) == expected


class TestCutScans:
    """Every kernel map reads one cached scan of a word's cuts."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        # a cold kernel, each cut scan made anywhere recorded by word
        PARSYM.coproduct_word.cache_clear()
        PARSYM.antipode_word.cache_clear()
        monkeypatch.setattr(algebra, "_SCANS", OrderedDict(), raising=False)
        words = []

        def counting(scan):
            def counted(d):
                words.append(d)
                return scan(d)

            return counted

        for module in (algebra, diagrams):
            for name in ("column_cuts", "tensor_cuts"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(getattr(diagrams, name)))
        return words

    def test_axiom_sweep_scans_each_word_once(self, scanned):
        assert verify_hopf_axioms(3, 1).all_passed
        assert len(scanned) == len(set(scanned)) > 200

    def test_matrix_scans_each_word_once(self, scanned):
        e_h_matrix(3)
        assert len(scanned) == len(set(scanned)) == 203

    @pytest.mark.parametrize("verb", ["coproduct", "chi", "antipode", "e-expand"])
    def test_op_scans_a_word_of_three_factors_once(self, scanned, capsys, verb):
        # the factors' cuts are the word's, so they are read, not scanned
        word = tensor_fold([D4, SINGLETONS, parse("1,2,1',2'")])
        assert len(column_cuts(word)[0]) == 2  # the test module's own, uncounted
        assert cli.main(["op", verb, render(word)]) == 0
        assert scanned == [word]

    def test_factor_entries_equal_their_scans(self):
        for d in basis_up_to(4):
            for g in algebra._factors(d):
                assert algebra._scan(g) == tuple(map(tuple, column_cuts(g)))


class TestCounit:
    def test_values(self):
        assert counit(ParSymElement.one()) == 1
        assert counit(h(D4)) == 0
        assert counit(5 * ParSymElement.one() - 2 * h(ID1)) == 5


class TestAntipode:
    def test_unit(self):
        assert antipode(ParSymElement.one()) == ParSymElement.one()

    def test_primitive_generators_negate(self):
        # a cut-free generator p takes the closed forms: S(p) = -p,
        # E_p = (-1)^(order + 1) p and Delta(p) = 1 (x) p + p (x) 1
        primitives = [d for d in basis_up_to(4) if is_tensor_irreducible(d) and m_statistic(d) == 1]
        assert len(primitives) == 2 + 7 + 115 + 2658
        for p in primitives:
            assert antipode(h(p)) == -1 * h(p)
            assert e_basis_expand(p) == (-1) ** (p.order + 1) * h(p)
            assert coproduct(h(p)) == DiagramTensor({(EMPTY_DIAGRAM, p): 1, (p, EMPTY_DIAGRAM): 1})

    def test_order_four_signed_regrouping(self):
        assert antipode(h(D4)) == -1 * h(D4) + h(tensor(D4_LEFT, SINGLETONS))

    def test_takeuchi_agreement_on_basis(self):
        # the folded sum, the tuple-leg oracle and the closed form
        for d in basis_up_to(4):
            x = h(d)
            assert takeuchi_antipode(x) == takeuchi_oracle(PARSYM, x, d.order) == antipode(x)

    def test_takeuchi_agreement_random_homogeneous(self):
        rng = random.Random(17)
        levels = {k: all_diagrams(k) for k in range(5)}
        for _ in range(100):
            degree = rng.randint(0, 4)
            x = ParSymElement.zero()
            for _ in range(3):
                x = x + rng.randint(-3, 3) * h(rng.choice(levels[degree]))
            assert takeuchi_antipode(x) == takeuchi_oracle(PARSYM, x, degree) == antipode(x)

    def test_takeuchi_matches_oracle_under_corrupted_coproduct(self):
        # both split only the last leg, so a non-coassociative Delta still
        # gives the tuple form's sum
        victim = parse("1,1',2'/2")
        fake = _corrupted(victim)
        for d in basis_up_to(3):
            assert hopfcheck.takeuchi(fake, h(d), d.order) == takeuchi_oracle(fake, h(d), d.order)
        assert hopfcheck.takeuchi(fake, h(victim), 2) != antipode(h(victim))

    def test_takeuchi_requires_homogeneous(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            takeuchi_antipode(h(ID1) + h(D4))

    def test_takeuchi_cap(self):
        with pytest.raises(CapExceeded):
            takeuchi_antipode(h(identity_diagram(5)))

    def test_degree_preserved(self):
        for d in basis_up_to(3):
            for word in antipode(h(d)).terms:
                assert word.order == d.order
            for word in antipode(antipode(h(d))).terms:
                assert word.order == d.order

    def test_reducible_word_memory_is_linear(self):
        # 2,000 order-1 factors: S is one term, +-H of the factors reversed; a
        # product of the factors' antipodes keeps every partial word
        factors = [SINGLETONS, ID1] * 1000
        tracemalloc.start()
        try:
            image = antipode(h(tensor_fold(factors)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert image == h(tensor_fold(reversed(factors)))

    def test_regrouping_cap(self):
        # one block over 21 columns: 20 bullet cuts, refused before any term
        d = PartitionDiagram(21, [[*range(1, 22), *range(-21, 0)]])
        message = r"^20 bullet cuts exceed the cap 19 \(2\^20 terms\)$"
        with pytest.raises(CapExceeded, match=message):
            antipode(h(d))
        with pytest.raises(CapExceeded, match=message):
            e_basis_expand(d)

    def test_left_composite_vanishes_on_nonempty(self):
        for d in basis_up_to(3):
            if d.is_empty():
                continue
            acc = ParSymElement.zero()
            for (left, right), coeff in coproduct(h(d)).terms.items():
                acc = acc + coeff * (antipode(h(left)) * h(right))
            assert acc == ParSymElement.zero()


class TestEBasis:
    def test_order_one(self):
        assert e_basis_expand(ID1) == h(ID1)
        assert e_basis_expand(SINGLETONS) == h(SINGLETONS)

    def test_order_four_expansion(self):
        assert e_basis_expand(D4) == -1 * h(D4) + h(tensor(D4_LEFT, SINGLETONS))

    def test_bullet_irreducible_order_two(self):
        # m = 1 and order 2 gives the single tuple with sign (-1)^3
        d = parse("1,2/1',2'")
        assert m_statistic(d) == 1
        assert e_basis_expand(d) == -1 * h(d)

    def test_two_factor_order_two(self):
        # {1,2,1',2'} = {1,1'} . {1,1'} has m = 2
        d = parse("1,2,1',2'")
        assert e_basis_expand(d) == -1 * h(d) + h(identity_diagram(2))

    def test_multiplicative_on_words(self):
        a, b = parse("1,2,1',2'"), parse("1,1'")
        assert e_basis_expand(tensor(a, b)) == e_basis_expand(a) * e_basis_expand(b)

    def test_matrix_order_one(self):
        report = e_h_matrix(1)
        assert report.matrix == (((0, 1),), ((1, 1),))
        assert report.determinant == 1

    def test_sparse_rows_match_expansions(self):
        for n in (1, 2, 3):
            report = e_h_matrix(n)
            basis = all_diagrams(n)
            assert list(report.basis) == basis
            assert len(report.matrix) == len(basis)
            for d, row in zip(basis, report.matrix):
                columns = [j for j, _ in row]
                assert all(a < b for a, b in zip(columns, columns[1:]))
                assert all(coeff != 0 for _, coeff in row)
                assert {basis[j]: coeff for j, coeff in row} == e_basis_expand(d).terms

    def test_matrix_determinants_are_units(self):
        for n in (1, 2, 3):
            report = e_h_matrix(n)
            assert len(report.basis) == len(all_diagrams(n))
            assert report.determinant in (1, -1)

    def test_matrix_determinant_matches_bareiss(self):
        for n in (1, 2, 3):
            report = e_h_matrix(n)
            dense = [[0] * len(report.basis) for _ in report.basis]
            for i, row in enumerate(report.matrix):
                for j, coeff in row:
                    dense[i][j] = coeff
            assert report.determinant == _det_bareiss(dense)

    def test_matrix_order_four(self):
        report = e_h_matrix(4)
        assert len(report.basis) == 4140
        assert sum(len(row) for row in report.matrix) == 5373
        assert report.determinant in (1, -1)

    def test_matrix_order_four_memory(self):
        # dense rows would hold 4140 x 4140 cells, over 130 MB
        tracemalloc.start()
        try:
            e_h_matrix(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_matrix_refuses_non_triangular_expansion(self, monkeypatch):
        # both order-one diagrams have one tensor factor
        expand = algebra.e_basis_expand
        first, second = all_diagrams(1)
        skewed = lambda d: expand(d) + h(second if d == first else first)
        monkeypatch.setattr(algebra, "e_basis_expand", skewed)
        with pytest.raises(ArithmeticError, match="^matrix is not triangular by word length$"):
            e_h_matrix(1)

    def test_matrix_refuses_non_unit_diagonal(self, monkeypatch):
        expand = algebra.e_basis_expand
        doubled = lambda d: expand(d) + expand(d).coefficient(d) * h(d)
        monkeypatch.setattr(algebra, "e_basis_expand", doubled)
        with pytest.raises(ArithmeticError, match="^diagonal entry not a unit$"):
            e_h_matrix(2)

    def test_matrix_cap(self):
        with pytest.raises(CapExceeded):
            e_h_matrix(6)


class TestCharacter:
    def test_values_on_order_one(self):
        assert character_zeta(ParSymElement.one()) == 1
        assert character_zeta(h(ID1)) == 1
        # the no-edge order-one diagram also has bullet statistic 1
        assert character_zeta(h(SINGLETONS)) == 1

    def test_vanishes_past_statistic_one(self):
        assert character_zeta(h(parse("1,2,1',2'"))) == 0
        assert character_zeta(h(D4)) == 0

    def test_survives_on_words_of_statistic_one_factors(self):
        assert character_zeta(h(identity_diagram(3))) == 1
        assert character_zeta(h(tensor(D4_LEFT, SINGLETONS))) == 1

    def test_multiplicative(self):
        rng = random.Random(23)
        pool = basis_up_to(3)
        for _ in range(200):
            a, b = h(rng.choice(pool)), h(rng.choice(pool))
            assert character_zeta(a * b) == character_zeta(a) * character_zeta(b)


def _corrupted(victim):
    """PARSYM with the interior coproduct terms of one generator dropped."""

    def coproduct_word(key):
        terms = PARSYM.coproduct_word(key).terms
        if key == victim:
            terms = {pair: c for pair, c in terms.items() if EMPTY_DIAGRAM in pair}
        return DiagramTensor(terms)

    return PARSYM._replace(name="parsym-corrupted", coproduct_word=coproduct_word)


def _corrupted_antipode(victim):
    """PARSYM with H(victim) added to the antipode of one word."""

    def antipode_word(key):
        image = PARSYM.antipode_word(key)
        return image + h(key) if key == victim else image

    return PARSYM._replace(name="parsym-corrupted", antipode_word=antipode_word)


ALL_PASS = [
    "coassociativity: PASS",
    "counit: PASS",
    "compatibility: PASS",
    "antipode-left: PASS",
    "antipode-right: PASS",
    "antihomomorphism: PASS",
    "takeuchi: PASS",
]


class TestSharedImages:
    """On a single basis word with coefficient 1 the maps return the cached
    word image itself; nothing built from it may write into it."""

    WORDS = (ID1, D4, tensor(D4, SINGLETONS))

    def test_basis_words_return_cached_images(self):
        for d in self.WORDS:
            assert antipode(h(d)) is PARSYM.antipode_word(d)
            assert coproduct(h(d)) is PARSYM.coproduct_word(d)

    def test_arithmetic_leaves_cached_images_unchanged(self):
        for f in (antipode, coproduct):
            x, y = f(h(D4)), f(h(tensor(D4, SINGLETONS)))
            before = (dict(x.terms), dict(y.terms))
            for r in (x + x, 2 * x, x * y, y * x, x - x, -x):
                assert r is not x and r is not y
            assert (f(h(D4)).terms, f(h(tensor(D4, SINGLETONS))).terms) == before

    def test_scaled_and_multi_term_elements_are_fresh(self):
        scaled = coproduct(2 * h(D4))
        assert scaled is not PARSYM.coproduct_word(D4)
        assert scaled == 2 * PARSYM.coproduct_word(D4)
        x = h(D4) + h(ID1)
        for f, word_map in ((antipode, PARSYM.antipode_word), (coproduct, PARSYM.coproduct_word)):
            image = f(x)
            assert image is not word_map(D4) and image is not word_map(ID1)
            assert image == word_map(D4) + word_map(ID1)


class TestAxiomHarness:
    @pytest.mark.parametrize("degree", range(4))
    def test_report_lines(self, degree):
        assert verify_hopf_axioms(degree).lines() == ALL_PASS

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("degree", range(4))
    def test_matches_reference_harness(self, degree, seed):
        assert verify_hopf_axioms(degree, seed).lines() == verify_axioms_oracle(PARSYM, degree, seed).lines()

    @pytest.mark.parametrize("seed", (1, 5, 7))
    @pytest.mark.parametrize("degree", (2, 3))
    @pytest.mark.parametrize("fake", ("coproduct", "antipode"))
    def test_fakes_match_reference_harness(self, fake, degree, seed):
        hopf = _corrupted(parse("1,1',2'/2")) if fake == "coproduct" else _corrupted_antipode(ID1)
        report = hopfcheck.verify_axioms(hopf, degree, seed)
        assert not report.all_passed
        assert report.lines() == verify_axioms_oracle(hopf, degree, seed).lines()

    @pytest.mark.parametrize("block", (1, 7))
    def test_pool_blocks_keep_first_witnesses(self, monkeypatch, block):
        # each law reports its first failure in pool order, however the pool is blocked
        monkeypatch.setattr(hopfcheck, "POOL_BLOCK", block)
        for hopf in (_corrupted(parse("1,1',2'/2")), _corrupted_antipode(ID1)):
            assert hopfcheck.verify_axioms(hopf, 3, seed=5).lines() == verify_axioms_oracle(hopf, 3, 5).lines()

    def test_corrupted_coproduct_report_lines(self):
        report = hopfcheck.verify_axioms(_corrupted(parse("1,1',2'/2")), 2, seed=5)
        assert report.lines() == [
            "coassociativity: PASS",
            "counit: PASS",
            "compatibility: FAIL (at 3*1,1' + 3*1,1',2'/2 + 3*1,1'/2/2' ; 1*1,2,1'/2')",
            "antipode-left: FAIL (at 1*1,1',2'/2)",
            "antipode-right: FAIL (at 1*1,1',2'/2)",
            "antihomomorphism: PASS",
            "takeuchi: FAIL (at 1*1,1',2'/2)",
        ]

    def test_corrupted_coproduct_report_lines_degree_three(self):
        report = hopfcheck.verify_axioms(_corrupted(parse("1,1',2'/2")), 3, seed=5)
        assert report.lines() == [
            "coassociativity: FAIL (at 1*1,2,1',2',3'/3)",
            "counit: PASS",
            "compatibility: FAIL (at 1*1,3'/2,1'/3,2' ; 1*1,1',2'/2)",
            "antipode-left: FAIL (at 1*1,1',2'/2)",
            "antipode-right: FAIL (at 1*1,1',2'/2)",
            "antihomomorphism: PASS",
            "takeuchi: FAIL (at 1*1,1',2'/2)",
        ]

    def test_corrupted_antipode_report_lines(self):
        report = hopfcheck.verify_axioms(_corrupted_antipode(ID1), 2, seed=5)
        assert report.lines() == [
            "coassociativity: PASS",
            "counit: PASS",
            "compatibility: PASS",
            "antipode-left: FAIL (at 1*1,1')",
            "antipode-right: FAIL (at 1*1,1')",
            "antihomomorphism: FAIL (at -2*1,2'/2/1' + -2*1,2/1',2' ; -5*() + 1*1,1')",
            "takeuchi: FAIL (at 1*1,1')",
        ]

    def test_degree_two_all_pass(self):
        report = verify_hopf_axioms(2)
        assert report.all_passed
        assert [r.name for r in report.results] == list(hopfcheck.AXIOM_NAMES)
        assert report.lines()[0] == "coassociativity: PASS"

    def test_degree_zero_trivial(self):
        assert verify_hopf_axioms(0).all_passed

    def test_refuses_above_takeuchi_cap(self):
        with pytest.raises(CapExceeded):
            verify_hopf_axioms(5)

    def test_corrupted_coproduct_breaks_antipode_axiom(self):
        victim = parse("1,1',2'/2")
        report = hopfcheck.verify_axioms(_corrupted(victim), 2, seed=5)
        failed = {r.name for r in report.results if not r.passed}
        assert "antipode-left" in failed or "antipode-right" in failed
        assert not report.all_passed
