"""Test oracle for the Hopf maps on generators, independent of the cut rule.

The library reads the split pairs, the antipode and the E-basis straight
off a word's bullet cuts (``split``, ``regroupings``).  This module keeps
the formulas as the paper states them: take a generator apart into its
bullet factors t_1 . ... . t_m, rebuild every prefix and suffix, or every
regrouping over a composition of m, with ``bullet_fold`` and ``tensor``,
and extend multiplicatively over the tensor factors with a plain
``functools.reduce``, so no product code is shared with the library.

It also holds the brute-force checks the library no longer carries: the
Hopf axiom harness in its two-sided form, which builds both sides of each
law as elements and compares them, the
split pairs found by multiplying out every pair of complementary orders,
Bareiss elimination for the E-to-H determinant, the per-word closure
check that builds the coproduct and antipode of every family member,
Takeuchi's formula and the QSym image over full tuples of coproduct legs,
the QSym image again by counting integer matrices, and NSym's elementary
generators by their recursion.
"""

import functools
import itertools
import operator
import random

from family_oracle import family_member

from parsym.algebra import PARSYM, ParSymElement
from parsym.closures import ClosureReport, DegreeChecks
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet,
    bullet_decompose,
    bullet_fold,
    enumerate_diagrams,
    is_tensor_irreducible,
    render,
    tensor,
    tensor_factorize,
)
from parsym.families import Family, enumerate_family
from parsym.hopfcheck import AxiomReport, AxiomResult, _describe
from parsym.linear import LinearCombination
from parsym.nsym import NSYM, NSymElement, QSymImage, nsym_h
from parsym.sequences import compositions

DEFAULT_ORACLE_CAP = 5


def iterated_coproducts(hopf, a):
    """The coproduct iterated to 1, 2, 3, ... tensor legs (keys become
    tuples of basis keys), each from the one before; the first is a itself."""
    out = LinearCombination({(key,): coeff for key, coeff in a.terms.items()})
    while True:
        yield out
        out = LinearCombination(
            (tup[:-1] + pair, coeff * c)
            for tup, coeff in out.terms.items()
            for pair, c in hopf.coproduct_word(tup[-1]).terms.items()
        )


def takeuchi_oracle(hopf, a, degree: int):
    """Takeuchi's formula with every k-leg term of the iterated coproduct
    kept as its tuple of basis words, dropped when a leg has degree zero
    and multiplied out leg by leg; the sum stops at k = degree."""
    mul = hopf.element._mul_key
    result = hopf.element((key, c) for key, c in a.terms.items() if hopf.degree(key) == 0)
    for k, legs in zip(range(1, degree + 1), iterated_coproducts(hopf, a)):
        result = result + hopf.element(
            (functools.reduce(mul, tup), (-1) ** k * coeff)
            for tup, coeff in legs.terms.items()
            if all(hopf.degree(key) for key in tup)
        )
    return result


def verify_axioms_oracle(hopf, max_degree: int, seed: int) -> AxiomReport:
    """Reference for ``hopfcheck.verify_axioms``: the same witnesses, drawn
    from the same seeded ``rng`` in the same order, with both sides of each
    law built as elements and compared, and Takeuchi's formula in its tuple
    form; each axiom reports the first witness it fails on."""
    rng = random.Random(seed)
    element, mul = hopf.element, hopf.element._mul_key
    levels = {n: list(hopf.basis(n)) for n in range(max_degree + 1)}

    def random_element(homogeneous: bool):
        if homogeneous:
            degrees = [rng.randint(0, max_degree)] * 3
        else:
            degrees = [rng.randint(0, max_degree) for _ in range(3)]
        return element((rng.choice(levels[n]), rng.randint(-3, 3)) for n in degrees)

    singletons = [element.basis(key) for n in range(max_degree + 1) for key in levels[n]]
    mixed = [random_element(homogeneous=False) for _ in range(10)]
    homogeneous = [random_element(homogeneous=True) for _ in range(10)]
    pool = singletons + mixed

    def random_pairs():
        for _ in range(60):
            yield rng.choice(pool), rng.choice(pool)

    def coassociative(a) -> bool:
        # (id x Delta) Delta = (Delta x id) Delta
        pairs = hopf.coproduct(a).terms.items()
        left = LinearCombination(
            ((u, v, y), coeff * c)
            for (x, y), coeff in pairs
            for (u, v), c in hopf.coproduct_word(x).terms.items()
        )
        right = LinearCombination(
            ((x, u, v), coeff * c)
            for (x, y), coeff in pairs
            for (u, v), c in hopf.coproduct_word(y).terms.items()
        )
        return left == right

    def counital(a) -> bool:
        # (eps x id) Delta = id = (id x eps) Delta
        pairs = hopf.coproduct(a).terms.items()
        left = element((y, coeff) for (x, y), coeff in pairs if hopf.degree(x) == 0)
        right = element((x, coeff) for (x, y), coeff in pairs if hopf.degree(y) == 0)
        return left == a == right

    def antipode_left(a) -> bool:
        # mul (S x id) Delta = unit eps
        return element(
            (mul(k, y), coeff * c)
            for (x, y), coeff in hopf.coproduct(a).terms.items()
            for k, c in hopf.antipode_word(x).terms.items()
        ) == hopf.counit(a) * element.one()

    def antipode_right(a) -> bool:
        # mul (id x S) Delta = unit eps
        return element(
            (mul(x, k), coeff * c)
            for (x, y), coeff in hopf.coproduct(a).terms.items()
            for k, c in hopf.antipode_word(y).terms.items()
        ) == hopf.counit(a) * element.one()

    def compatible(a, b) -> bool:
        return hopf.coproduct(a * b) == hopf.coproduct(a) * hopf.coproduct(b)

    def antimorphic(a, b) -> bool:
        return hopf.antipode(a * b) == hopf.antipode(b) * hopf.antipode(a)

    def agrees_with_takeuchi(a) -> bool:
        degree = max((hopf.degree(k) for k in a.terms), default=0)
        return takeuchi_oracle(hopf, a, degree) == hopf.antipode(a)

    table = (
        ("coassociativity", zip(pool), coassociative),
        ("counit", zip(pool), counital),
        ("compatibility", random_pairs(), compatible),
        ("antipode-left", zip(pool), antipode_left),
        ("antipode-right", zip(pool), antipode_right),
        ("antihomomorphism", random_pairs(), antimorphic),
        ("takeuchi", zip(singletons + homogeneous), agrees_with_takeuchi),
    )
    results = []
    for name, witnesses, holds in table:
        bad = next((w for w in witnesses if not holds(*w)), None)
        text = None if bad is None else "at " + " ; ".join(_describe(hopf, a) for a in bad)
        results.append(AxiomResult(name, bad is None, text))
    return AxiomReport(hopf.name, max_degree, tuple(results))


def split_pairs_oracle(pi: PartitionDiagram) -> list[tuple[PartitionDiagram, PartitionDiagram]]:
    """(t_1 ... t_j, t_{j+1} ... t_m) for j = 0..m, bullet-folded."""
    factors = bullet_decompose(pi)
    return [
        (bullet_fold(factors[:j]), bullet_fold(factors[j:]))
        for j in range(len(factors) + 1)
    ]


def _regrouped(pi: PartitionDiagram, degree_sign: bool) -> ParSymElement:
    # sum over compositions alpha of m of (-1)^len(alpha) times the tensor of
    # the bullet-folded groups; degree_sign adds (-1)^order
    factors = bullet_decompose(pi)
    terms: dict[PartitionDiagram, int] = {}
    for alpha in compositions(len(factors)):
        sign = (-1) ** (len(alpha) + (pi.order if degree_sign else 0))
        word, pos = EMPTY_DIAGRAM, 0
        for part in alpha:
            word = tensor(word, bullet_fold(factors[pos : pos + part]))
            pos += part
        terms[word] = terms.get(word, 0) + sign
    return ParSymElement(terms)


def _generators(d: PartitionDiagram) -> list[PartitionDiagram]:
    return tensor_factorize(d) if d.order else []


def antipode_oracle(d: PartitionDiagram) -> ParSymElement:
    """S(H_d): the reversed product of the generators' regrouping sums."""
    images = [_regrouped(pi, False) for pi in reversed(_generators(d))]
    return functools.reduce(operator.mul, images, ParSymElement.one())


def e_basis_oracle(d: PartitionDiagram) -> ParSymElement:
    """E_d: the product of the generators' regrouping sums, each signed by
    (-1)^order."""
    images = [_regrouped(pi, True) for pi in _generators(d)]
    return functools.reduce(operator.mul, images, ParSymElement.one())


@functools.lru_cache(maxsize=None)
def _bullet_preimages(n: int) -> dict[PartitionDiagram, list]:
    # product -> its pairs (x, y), over nonempty x, y whose orders sum to n
    table: dict[PartitionDiagram, list] = {}
    for i in range(1, n):
        for x in enumerate_diagrams(i):
            for y in enumerate_diagrams(n - i):
                table.setdefault(bullet(x, y), []).append((x, y))
    return table


def coproduct_pairs_oracle(
    pi: PartitionDiagram, max_order: int = DEFAULT_ORACLE_CAP
) -> list[tuple[PartitionDiagram, PartitionDiagram]]:
    """All pairs (x, y), empty diagrams included, with x . y = pi, found by
    multiplying out every pair of complementary orders.  Independent of the
    cut-based split rule; capped because it scans whole basis levels."""
    if not is_tensor_irreducible(pi):
        raise ValueError("expected a tensor-irreducible diagram")
    if pi.order > max_order:
        raise CapExceeded(f"oracle capped at order {max_order}")
    found = [(EMPTY_DIAGRAM, pi), (pi, EMPTY_DIAGRAM), *_bullet_preimages(pi.order).get(pi, ())]
    return sorted(found, key=lambda p: (p[0].order, render(p[0]), p[1].order, render(p[1])))


def _det_bareiss(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[i][i]
        for j in range(i + 1, n):
            row_j = m[j]
            row_i = m[i]
            factor = row_j[i]
            for k in range(i, n):
                row_j[k] = (row_j[k] * pivot - factor * row_i[k]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def closure_oracle(family: Family, max_degree: int) -> ClosureReport:
    """Test oracle for ``closures.closure_report``: build the tensor factors,
    every coproduct term and every antipode word of each member up to
    ``max_degree`` and test each for membership; H_d counts as primitive
    when its coproduct is H_d (x) 1 + 1 (x) H_d.  Its cost grows with the
    2^m terms of each member's maps, so it has no place outside tests."""
    checks: dict[int, DegreeChecks] = {}
    counterexample: tuple[PartitionDiagram, str] | None = None
    for degree in range(1, max_degree + 1):
        tensor_ok = delta_ok = antipode_ok = True
        primitive = 0
        for d in enumerate_family(degree, family):
            pairs = PARSYM.coproduct_word(d).terms
            if pairs.keys() == {(d, EMPTY_DIAGRAM), (EMPTY_DIAGRAM, d)}:
                primitive += 1
            if tensor_ok and not all(
                family_member(f, family) for f in tensor_factorize(d)
            ):
                tensor_ok = False
                counterexample = counterexample or (d, "tensor")
            if delta_ok and not all(
                family_member(left, family) and family_member(right, family)
                for left, right in pairs
            ):
                delta_ok = False
                counterexample = counterexample or (d, "coproduct")
            if antipode_ok and not all(
                family_member(word, family) for word in PARSYM.antipode_word(d).terms
            ):
                antipode_ok = False
                counterexample = counterexample or (d, "antipode")
        checks[degree] = DegreeChecks(tensor_ok, delta_ok, antipode_ok, primitive)
    return ClosureReport(family, max_degree, checks, counterexample)


def qsym_word_oracle(alpha: tuple[int, ...]) -> QSymImage:
    """The QSym image of H_alpha from the tuple form: the coefficient of
    M_beta sums the coefficients of the (len beta)-leg terms of the iterated
    coproduct whose legs have degrees beta."""
    n = sum(alpha)
    if n == 0:
        return QSymImage({(): 1})
    terms = (
        (tuple(map(sum, tup)), coeff)
        for legs in itertools.islice(iterated_coproducts(NSYM, nsym_h(alpha)), n)
        for tup, coeff in legs.terms.items()
    )
    return QSymImage((weights, c) for weights, c in terms if all(weights))


def qsym_matrix_count(alpha: tuple[int, ...]) -> QSymImage:
    """The QSym image of H_alpha counted without a coproduct: the coefficient
    of M_beta is the number of matrices over the nonnegative integers with
    row sums alpha and column sums beta."""

    def vectors(total, caps):
        # nonnegative vectors of this sum, entry j at most caps[j]
        if not caps:
            if total == 0:
                yield ()
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in vectors(total - first, caps[1:]):
                yield (first,) + rest

    def count(rows, cols):
        if not rows:
            return int(not any(cols))
        return sum(count(rows[1:], tuple(map(operator.sub, cols, v))) for v in vectors(rows[0], cols))

    return QSymImage({beta: count(alpha, beta) for beta in compositions(sum(alpha))})


def nsym_e(n: int) -> NSymElement:
    """Elementary generator by the recursion E_n = sum (-1)^(i+1) H_i E_(n-i)."""
    if n < 1:
        raise ValueError("n must be positive")

    @functools.cache
    def rec(m: int) -> NSymElement:
        if m == 0:
            return NSymElement.one()
        out = NSymElement.zero()
        for i in range(1, m + 1):
            sign = 1 if i % 2 else -1
            out = out + sign * (nsym_h((i,)) * rec(m - i))
        return out

    return rec(n)
