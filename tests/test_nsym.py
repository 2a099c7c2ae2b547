import functools
import operator
import random
from collections import Counter

import pytest
from hopf_oracle import (
    nsym_e,
    qsym_matrix_count,
    qsym_word_oracle,
    takeuchi_oracle,
    verify_axioms_oracle,
)

from parsym import hopfcheck
from parsym.algebra import ParSymElement, antipode, character_zeta, coproduct, h
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    enumerate_diagrams,
    parse,
)
from parsym.linear import FreeHopf
from parsym.nsym import (
    NSYM,
    NSymElement,
    NSymTensor,
    QSymImage,
    _qsym_word,
    chi,
    nsym_antipode,
    nsym_coproduct,
    nsym_counit,
    nsym_h,
    parse_composition,
    phi,
    phi_generator,
    qsym_image,
    render_composition,
    verify_nsym_hopf_axioms,
    zeta_nsym,
)
from parsym.sequences import compositions

D4 = parse("1,2,3/4/1',2'/3',4'")


def basis_up_to(n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_diagrams(k))
    return out


class TestCompositionText:
    def test_round_trip(self):
        for alpha in [(), (1,), (3, 1, 4)]:
            assert parse_composition(render_composition(alpha)) == alpha

    def test_malformed(self):
        for bad in ["3,1", "(3,)", "(0)", "(1,-2)"]:
            with pytest.raises(ValueError):
                parse_composition(bad)


class TestNSymAlgebra:
    def test_product_concatenates(self):
        assert nsym_h((3, 1)) * nsym_h((4,)) == nsym_h((3, 1, 4))

    def test_unit(self):
        x = 2 * nsym_h((1, 2)) - nsym_h((3,))
        assert NSymElement.one() * x == x == x * NSymElement.one()

    def test_bilinear(self):
        assert (2 * nsym_h((1,))) * (3 * nsym_h((2,))) == 6 * nsym_h((1, 2))

    def test_coproduct_generator(self):
        expected = NSymTensor(
            {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}
        )
        assert nsym_coproduct(nsym_h((2,))) == expected

    def test_coproduct_unit(self):
        assert nsym_coproduct(NSymElement.one()) == NSymTensor.one()

    def test_coproduct_word(self):
        expected = NSymTensor(
            {((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}
        )
        assert nsym_coproduct(nsym_h((1, 1))) == expected

    def test_counit(self):
        assert nsym_counit(NSymElement.one()) == 1
        assert nsym_counit(nsym_h((2,))) == 0

    def test_antipode_small(self):
        assert nsym_antipode(nsym_h((1,))) == -1 * nsym_h((1,))
        assert nsym_antipode(nsym_h((2,))) == -1 * nsym_h((2,)) + nsym_h((1, 1))

    def test_antipode_vs_elementary(self):
        # E_n from its recursion is (-1)^n S(H_n)
        for n in range(1, 13):
            assert nsym_e(n) == (-1) ** n * nsym_antipode(nsym_h((n,)))

    def test_antipode_is_reversed_product_of_signed_elementary(self):
        # S(H_alpha) = prod over the parts a of alpha, reversed, of (-1)^a E_a,
        # with E_a from its recursion and the product from a plain reduce
        for n in range(8):
            for alpha in compositions(n):
                images = [(-1) ** a * nsym_e(a) for a in reversed(alpha)]
                expected = functools.reduce(operator.mul, images, NSymElement.one())
                assert nsym_antipode(nsym_h(alpha)) == expected

    def test_antipode_budget(self):
        # one term per set of the sum - len inner cuts, capped at 19 cuts
        for alpha in ((21,), (10, 10, 10)):
            with pytest.raises(CapExceeded, match="exceed the cap 19"):
                nsym_antipode(nsym_h(alpha))
        assert len(nsym_antipode(nsym_h((9, 9))).terms) == 65_536

    def test_coproduct_budget(self):
        # the kernel's cut-choice budget: 20 one-part generators of two terms
        # each give 2^20 choices and refuse; 19 give 2^19 and stay under it
        with pytest.raises(CapExceeded, match=r"^1048576 coproduct cut choices exceed the cap 2\^19$"):
            nsym_coproduct(nsym_h((1,) * 20))
        delta = nsym_coproduct(nsym_h((1,) * 19))
        assert len(delta.terms) == 20 and sum(delta.terms.values()) == 2**19

    def test_elementary_small(self):
        assert nsym_e(1) == nsym_h((1,))
        assert nsym_e(2) == nsym_h((1, 1)) - nsym_h((2,))
        assert nsym_e(3) == (
            nsym_h((1, 1, 1)) - nsym_h((1, 2)) - nsym_h((2, 1)) + nsym_h((3,))
        )

    def test_hopf_axioms_degree_five(self):
        report = verify_nsym_hopf_axioms(5)
        assert report.all_passed
        assert report.lines() == [
            "coassociativity: PASS",
            "counit: PASS",
            "compatibility: PASS",
            "antipode-left: PASS",
            "antipode-right: PASS",
            "antihomomorphism: PASS",
            "takeuchi: PASS",
        ]

    def test_takeuchi_weight_seven(self):
        # every composition to weight 7, one beyond the harness: the folded
        # sum, the tuple-leg oracle and the closed form
        for n in range(8):
            for alpha in compositions(n):
                x = nsym_h(alpha)
                assert hopfcheck.takeuchi(NSYM, x, n) == takeuchi_oracle(NSYM, x, n) == nsym_antipode(x)

    def test_takeuchi_random_homogeneous(self):
        rng = random.Random(43)
        levels = {n: list(compositions(n)) for n in range(8)}
        for _ in range(40):
            n = rng.randint(0, 7)
            x = NSymElement.zero()
            for _ in range(3):
                x = x + rng.randint(-3, 3) * nsym_h(rng.choice(levels[n]))
            assert hopfcheck.takeuchi(NSYM, x, n) == takeuchi_oracle(NSYM, x, n) == nsym_antipode(x)

    def test_corrupted_antipode_report_lines(self):
        assert hopfcheck.verify_axioms(_corrupted_antipode(), 3, seed=5).lines() == [
            "coassociativity: PASS",
            "counit: PASS",
            "compatibility: PASS",
            "antipode-left: FAIL (at 1*H(2))",
            "antipode-right: FAIL (at 1*H(2))",
            "antihomomorphism: FAIL (at 1*H(2) ; -4*H(1) + 3*H(3))",
            "takeuchi: FAIL (at 1*H(2))",
        ]

    def test_corrupted_coproduct_report_lines(self):
        assert hopfcheck.verify_axioms(_corrupted_coproduct(), 4, seed=5).lines() == [
            "coassociativity: FAIL (at 1*H(3))",
            "counit: PASS",
            "compatibility: FAIL (at 1*H(3,1) ; 1*H(3))",
            "antipode-left: FAIL (at 1*H(3))",
            "antipode-right: FAIL (at 1*H(3))",
            "antihomomorphism: PASS",
            "takeuchi: FAIL (at 1*H(3))",
        ]

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("degree", range(7))
    def test_matches_reference_harness(self, degree, seed):
        assert verify_nsym_hopf_axioms(degree, seed).lines() == verify_axioms_oracle(NSYM, degree, seed).lines()

    @pytest.mark.parametrize("seed", (1, 5, 7))
    @pytest.mark.parametrize("degree", (3, 4))
    @pytest.mark.parametrize("fake", ("coproduct", "antipode"))
    def test_fakes_match_reference_harness(self, fake, degree, seed):
        hopf = _corrupted_coproduct() if fake == "coproduct" else _corrupted_antipode()
        report = hopfcheck.verify_axioms(hopf, degree, seed)
        assert not report.all_passed
        assert report.lines() == verify_axioms_oracle(hopf, degree, seed).lines()


def _corrupted_antipode():
    """NSYM with H(2) added to the antipode of H(2)."""

    def antipode_word(alpha):
        image = NSYM.antipode_word(alpha)
        return image + nsym_h(alpha) if alpha == (2,) else image

    return NSYM._replace(name="nsym-corrupted", antipode_word=antipode_word)


def _corrupted_coproduct():
    """NSYM with the term H(1) (x) H(2) dropped from the coproduct of H(3)."""

    def coproduct_word(alpha):
        terms = NSYM.coproduct_word(alpha).terms
        if alpha == (3,):
            terms = {pair: c for pair, c in terms.items() if pair != ((1,), (2,))}
        return NSymTensor(terms)

    return NSYM._replace(name="nsym-corrupted", coproduct_word=coproduct_word)


class TestKernel:
    def test_repeated_generator_built_once(self):
        # a fresh kernel on NSym's one-part generators, its generator map counting calls
        calls = Counter()

        def coproduct_generator(generator):
            calls[generator] += 1
            return _direct_coproduct(generator)

        fields = NSYM._asdict()
        del fields["coproduct_word"], fields["antipode_word"]
        factors = lambda alpha: [(part,) for part in alpha]  # noqa: E731
        hopf = FreeHopf.on_generators(factors, coproduct_generator, NSYM.antipode_word, **fields)
        assert hopf.coproduct_word((2, 1, 2, 2)) == nsym_coproduct(nsym_h((2, 1, 2, 2)))
        assert calls == {(2,): 1, (1,): 1}
        assert hopf.coproduct_word((1, 2)) == nsym_coproduct(nsym_h((1, 2)))
        assert calls == {(2,): 1, (1,): 1}

    def test_words_are_products_of_direct_generator_coproducts(self):
        for n in range(1, 7):
            for alpha in compositions(n):
                expected = functools.reduce(operator.mul, (_direct_coproduct((a,)) for a in alpha))
                assert nsym_coproduct(nsym_h(alpha)) == expected


def _direct_coproduct(generator):
    """Delta(H_n), the sum of H_i (x) H_(n-i), with H_0 the empty word."""
    (n,) = generator
    part = lambda i: (i,) if i else ()  # noqa: E731
    return NSymTensor({(part(i), part(n - i)): 1 for i in range(n + 1)})


class TestZeta:
    def test_values(self):
        assert zeta_nsym(nsym_h((1,))) == 1
        assert zeta_nsym(nsym_h((2,))) == 0
        assert zeta_nsym(NSymElement.one()) == 1

    def test_multiplicative(self):
        rng = random.Random(31)
        pool = [alpha for n in range(4) for alpha in compositions(n)]
        for _ in range(100):
            a, b = nsym_h(rng.choice(pool)), nsym_h(rng.choice(pool))
            assert zeta_nsym(a * b) == zeta_nsym(a) * zeta_nsym(b)


class TestPhi:
    def test_generator_shape(self):
        assert phi_generator(1) == parse("1/1'")
        assert phi_generator(3) == parse("1/2/3/1',2',3'")

    def test_word_image(self):
        expected = parse("1/2/1',2'/3/3'")
        assert phi(nsym_h((2, 1))) == h(expected)

    def test_degree_preserving_and_injective(self):
        images = {}
        for n in range(6):
            for alpha in compositions(n):
                (word,) = phi(nsym_h(alpha)).terms
                assert word.order == n
                images[alpha] = word
        assert len(set(images.values())) == len(images)

    def test_coalgebra_morphism_on_generators(self):
        for n in range(1, 5):
            lhs = coproduct(phi(nsym_h((n,))))
            rhs_pairs = {}
            for (a, b), coeff in nsym_coproduct(nsym_h((n,))).terms.items():
                (left,) = phi(nsym_h(a)).terms
                (right,) = phi(nsym_h(b)).terms
                rhs_pairs[(left, right)] = coeff
            assert lhs.terms == rhs_pairs


class TestChi:
    def test_order_four_projection(self):
        assert chi(h(D4)) == nsym_h((2,))

    def test_empty_word(self):
        assert chi(ParSymElement.one()) == NSymElement.one()

    def test_retraction_of_phi(self):
        for n in range(6):
            for alpha in compositions(n):
                assert chi(phi(nsym_h(alpha))) == nsym_h(alpha)

    def test_coalgebra_morphism(self):
        for d in basis_up_to(3):
            lhs = NSymTensor.zero()
            for (a, b), coeff in coproduct(h(d)).terms.items():
                for (x, cx) in chi(h(a)).terms.items():
                    for (y, cy) in chi(h(b)).terms.items():
                        lhs = lhs + (coeff * cx * cy) * NSymTensor.basis((x, y))
            assert lhs == nsym_coproduct(chi(h(d)))

    def test_counit_compatibility(self):
        for d in basis_up_to(3):
            assert nsym_counit(chi(h(d))) == (1 if d.is_empty() else 0)

    def test_character_compatibility_both_ways(self):
        for d in basis_up_to(3):
            assert zeta_nsym(chi(h(d))) == character_zeta(h(d))
        for n in range(5):
            for alpha in compositions(n):
                assert character_zeta(phi(nsym_h(alpha))) == zeta_nsym(nsym_h(alpha))

    def test_antipode_compatibility(self):
        # holds on every word, not just the irreducible generators
        for d in basis_up_to(3):
            assert chi(antipode(h(d))) == nsym_antipode(chi(h(d)))


class TestQSymImage:
    def test_single_generators(self):
        assert qsym_image(nsym_h((2,))) == QSymImage({(2,): 1, (1, 1): 1})
        assert qsym_image(nsym_h((3,))) == QSymImage(
            {(3,): 1, (2, 1): 1, (1, 2): 1, (1, 1, 1): 1}
        )

    def test_word_image_needs_no_quasi_shuffle(self):
        # image of H_(1,1) is the square of the image of H_(1)
        assert qsym_image(nsym_h((1, 1))) == QSymImage({(2,): 1, (1, 1): 2})

    def test_unit(self):
        assert qsym_image(NSymElement.one()) == QSymImage({(): 1})
        assert qsym_image(ParSymElement.one()) == QSymImage({(): 1})

    def test_order_four_diagram_image(self):
        assert qsym_image(h(D4)) == QSymImage({(2,): 1, (1, 1): 1})

    def test_factors_through_chi(self):
        for d in basis_up_to(3):
            assert qsym_image(h(d)) == qsym_image(chi(h(d)))

    def test_words_match_both_oracles(self):
        # the folded walk, the tuple form and the integer-matrix count, past
        # the cap of qsym_image
        for n in range(7):
            for alpha in compositions(n):
                assert _qsym_word(alpha) == qsym_word_oracle(alpha) == qsym_matrix_count(alpha)

    def test_degree_cap(self):
        with pytest.raises(CapExceeded):
            qsym_image(nsym_h((5,)))

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError, match="not homogeneous"):
            qsym_image(nsym_h((1,)) + nsym_h((2,)))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            qsym_image({EMPTY_DIAGRAM: 1})
