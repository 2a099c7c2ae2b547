"""Acceptance suite: every criterion gets one test that prints a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from hopf_oracle import _bullet_preimages, coproduct_pairs_oracle

from parsym.algebra import (
    DiagramTensor,
    coproduct,
    e_h_matrix,
    h,
    verify_hopf_axioms,
    character_zeta,
)
from parsym.cli import main
from parsym.closures import closure_report, family_generator_counts
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    bullet,
    bullet_fold,
    enumerate_diagrams,
    is_tensor_irreducible,
    m_statistic,
    parse,
    render,
    tensor,
    tensor_fold,
)
from parsym.families import Family, enumerate_family
from parsym.nsym import QSymImage, chi, nsym_h, phi, qsym_image, zeta_nsym
from parsym.sequences import (
    boolean_transform,
    compositions,
    family_dimension_sequence,
    irreducible_count,
    verify_gf_identity,
)

D4 = parse("1,2,3/4/1',2'/3',4'")
D4_LEFT = parse("1,2,3/1',2'/3'")
SINGLETONS = parse("1/1'")

A_SEQUENCE = [2, 11, 151, 3267, 96663, 3663123, 171131871]


def report(number, description):
    print(f"[criterion {number:02d}] PASS  {description}")


def basis_up_to(n):
    out = []
    for k in range(n + 1):
        out.extend(enumerate_diagrams(k))
    return out


def test_criterion_01_generator_sequence(capsys):
    start = time.perf_counter()
    code = main(["seq", "a", "--terms", "7"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [str(v) for v in A_SEQUENCE]
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"seq a --terms 7 exact in {elapsed:.3f}s")


def test_criterion_02_recursion_matches_enumeration():
    start = time.perf_counter()
    for k in range(1, 5):
        count = sum(1 for d in enumerate_diagrams(k) if is_tensor_irreducible(d))
        assert count == irreducible_count(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, f"irreducible counts match for k=1..4 in {elapsed:.1f}s")


def test_criterion_03_generating_function_identity():
    start = time.perf_counter()
    result = verify_gf_identity(7)
    elapsed = time.perf_counter() - start
    assert result.equal
    assert list(result.lhs) == [0] + A_SEQUENCE
    assert elapsed < 1.0
    report(3, f"generating-function identity exact to order 7 in {elapsed:.3f}s")


def test_criterion_04_order_four_coproduct():
    expected = DiagramTensor(
        {
            (D4, EMPTY_DIAGRAM): 1,
            (D4_LEFT, SINGLETONS): 1,
            (EMPTY_DIAGRAM, D4): 1,
        }
    )
    assert coproduct(h(D4)) == expected
    report(4, "coproduct of the fixed order-4 diagram has exactly 3 terms")


def test_criterion_05_fixed_bullet_products():
    assert bullet(parse("1,1'"), SINGLETONS) == parse("1,1',2'/2")
    assert bullet(parse("1,1'"), parse("1,1'")) == parse("1,2,1',2'")
    a = parse("1,2/3,1'/2',3'")
    b = parse("1,2,3,1',3',4'/4,2'")
    assert render(bullet(a, b)) == "1,2/3,1'/4,5,6,2',3',4',6',7'/7,5'"
    report(5, "both short bullet products and the order-7 product are exact")


def test_criterion_06_hopf_axiom_suite():
    start = time.perf_counter()
    result = verify_hopf_axioms(3)
    elapsed = time.perf_counter() - start
    assert result.all_passed, result.lines()
    assert {r.name for r in result.results} == {
        "coassociativity",
        "counit",
        "compatibility",
        "antipode-left",
        "antipode-right",
        "antihomomorphism",
        "takeuchi",
    }
    assert elapsed < 300.0
    report(6, f"all Hopf axioms pass through degree 3 in {elapsed:.1f}s")


def test_criterion_07_coproduct_oracle_equivalence():
    mismatches = 0
    checked = 0
    for d in basis_up_to(3):
        if not is_tensor_irreducible(d):
            continue
        checked += 1
        if coproduct(h(d)).terms != dict.fromkeys(coproduct_pairs_oracle(d), 1):
            mismatches += 1
    assert checked == 2 + 11 + 151
    assert mismatches == 0
    report(7, f"split rule equals brute-force oracle on {checked} generators")


def test_criterion_08_e_basis_determinants():
    for n in (1, 2, 3):
        assert e_h_matrix(n).determinant in (1, -1)
    report(8, "E-to-H change of basis is unimodular for degrees 1..3")


def test_criterion_09_morphism_suite():
    # chi . phi = id on weights <= 5
    for n in range(6):
        for alpha in compositions(n):
            assert chi(phi(nsym_h(alpha))) == nsym_h(alpha)
    # coalgebra, counit and character compatibility on degrees <= 3
    from parsym.nsym import NSymTensor, nsym_coproduct

    for d in basis_up_to(3):
        image = chi(h(d))
        mapped = NSymTensor.zero()
        for (a, b), coeff in coproduct(h(d)).terms.items():
            for x, cx in chi(h(a)).terms.items():
                for y, cy in chi(h(b)).terms.items():
                    mapped = mapped + (coeff * cx * cy) * NSymTensor.basis((x, y))
        assert mapped == nsym_coproduct(image)
        assert zeta_nsym(image) == character_zeta(h(d))
    for n in range(4):
        for alpha in compositions(n):
            assert character_zeta(phi(nsym_h(alpha))) == zeta_nsym(nsym_h(alpha))
    # quasisymmetric image of the fixed order-4 diagram factors through chi
    assert qsym_image(h(D4)) == QSymImage({(2,): 1, (1, 1): 1})
    for d in basis_up_to(3):
        assert qsym_image(h(d)) == qsym_image(chi(h(d)))
    report(9, "chi/phi/zeta/qsym morphism identities hold at the stated degrees")


def test_criterion_10_subalgebra_closures():
    families = (
        Family.PERMUTATION,
        Family.PLANAR,
        Family.MATCHING,
        Family.PERFECT_MATCHING,
        Family.PARTIAL_PERMUTATION,
        Family.PLANAR_PERFECT_MATCHING,
        Family.PLANAR_MATCHING,
        Family.PLANAR_PARTIAL_PERMUTATION,
    )
    for family in families:
        assert closure_report(family, 3).all_passed, family
    for k in (1, 2, 3):
        for d in enumerate_family(k, Family.PERFECT_MATCHING):
            if is_tensor_irreducible(d):
                assert m_statistic(d) == 1
    report(10, "all eight families closed to degree 3; irreducible matchings primitive")


def test_criterion_11_family_dimensions_and_generator_counts():
    expected = {
        Family.PLANAR: [2, 14, 132],
        Family.MATCHING: [2, 10, 76],
        Family.PERFECT_MATCHING: [1, 3, 15],
        Family.PARTIAL_PERMUTATION: [2, 7, 34],
        Family.PERMUTATION: [1, 2, 6],
    }
    for family, values in expected.items():
        counts = [sum(1 for _ in enumerate_family(k, family)) for k in (1, 2, 3)]
        assert counts == values == family_dimension_sequence(family, 3)
        assert family_generator_counts(family, 4) == boolean_transform(
            family_dimension_sequence(family, 4)
        )
    report(11, "dimension formulas and generator counts verified to the stated orders")


def test_criterion_12_property_suites():
    levels = {k: list(enumerate_diagrams(k)) for k in range(3)}
    pool = [d for k in range(3) for d in levels[k]]
    nonempty = [d for d in pool if not d.is_empty()]
    for a in pool:
        for b in pool:
            for c in pool:
                assert bullet(bullet(a, b), c) == bullet(a, bullet(b, c))
    for a in nonempty:
        for b in nonempty:
            for c in nonempty:
                assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
                assert tensor(bullet(a, b), c) == bullet(a, tensor(b, c))
                assert bullet(tensor(a, b), c) == tensor(a, bullet(b, c))
    # product of nonempty diagrams is irreducible iff both factors are
    for ka in range(1, 4):
        for kb in range(1, 5 - ka):
            for a in enumerate_diagrams(ka):
                for b in enumerate_diagrams(kb):
                    assert is_tensor_irreducible(bullet(a, b)) == (
                        is_tensor_irreducible(a) and is_tensor_irreducible(b)
                    )
    # unique tensor factorisation: folding all irreducible words of total
    # order k reaches every diagram exactly once
    irreducibles = {
        k: [d for d in enumerate_diagrams(k) if is_tensor_irreducible(d)]
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
        level = list(enumerate_diagrams(k))
        assert len(folded) == len(set(folded)) == len(level)
    # unique bullet decomposition: the interior splits d = x . y, read from the
    # brute-force table of every product of lower orders, number m - 1
    from parsym.diagrams import bullet_decompose, is_bullet_irreducible

    for k in range(1, 4):
        for d in enumerate_diagrams(k):
            factors = bullet_decompose(d)
            assert bullet_fold(factors) == d
            assert all(is_bullet_irreducible(f) for f in factors)
            assert len(_bullet_preimages(k).get(d, ())) == m_statistic(d) - 1
    report(12, "associativity, matching identities, irreducibility and uniqueness oracles pass")
