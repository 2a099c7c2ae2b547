"""Generic verification harness for graded connected Hopf algebras that are
free as algebras.

Works on elements through a :class:`parsym.linear.FreeHopf` description:
elements of ``hopf.element`` multiply as words, elements of ``hopf.tensor``
multiply componentwise, and ``hopf.coproduct`` / ``hopf.antipode`` are the
linear extensions of the cached word maps.  Multi-leg tensors, which have no
product, are plain :class:`LinearCombination` values on tuple keys.

Takeuchi's formula  S = sum_k (-1)^k mul^(k-1) proj^(x k) Delta^(k-1),
with proj killing degree zero, is evaluated here on (prefix product, last
leg) pairs and used as the oracle for the closed-form antipode; folding
legs to their degrees instead, the same walk gives NSym's QSym image.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .linear import FreeHopf, LinearCombination

AXIOM_NAMES = (
    "coassociativity",
    "counit",
    "compatibility",
    "antipode-left",
    "antipode-right",
    "antihomomorphism",
    "takeuchi",
)


def folded_coproducts(hopf: FreeHopf, a: LinearCombination, fold: Callable, start) -> Iterator[LinearCombination]:
    """The coproduct iterated to 1, 2, 3, ... legs of positive degree, each
    k-leg term kept as the pair (its first k-1 legs folded into ``start`` by
    ``fold(prefix, leg)`` from the left, its last leg); only the last leg is
    split again, and the walk stops when no such term is left."""
    deg = hopf.degree
    pairs = LinearCombination(((start, key), c) for key, c in a.terms.items() if deg(key))
    while pairs:
        yield pairs
        pairs = LinearCombination(
            ((fold(p, u), v), coeff * c)
            for (p, y), coeff in pairs.terms.items()
            for (u, v), c in hopf.coproduct_word(y).terms.items()
            if deg(u) and deg(v)
        )


def takeuchi(hopf: FreeHopf, a: LinearCombination, degree: int) -> LinearCombination:
    """Evaluate Takeuchi's antipode formula on an element whose nonzero
    terms all live in degrees <= degree, with the first k-1 legs of each
    k-leg term folded by the product.  The sum truncates at k = degree
    because each projected leg has positive degree."""
    mul, element = hopf.element._mul_key, hopf.element
    result = hopf.counit(a) * element.one()
    for k, pairs in zip(range(1, degree + 1), folded_coproducts(hopf, a, mul, element.unit)):
        result = result + element((mul(p, y), (-1) ** k * c) for (p, y), c in pairs.terms.items())
    return result


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        if self.passed:
            return f"{self.name}: PASS"
        return f"{self.name}: FAIL ({self.counterexample})"


@dataclass(frozen=True)
class AxiomReport:
    algebra: str
    max_degree: int
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


def _describe(hopf: FreeHopf, a: LinearCombination) -> str:
    parts = [f"{c}*{hopf.render(k)}" for k, c in sorted(
        a.terms.items(), key=lambda item: (hopf.degree(item[0]), hopf.render(item[0]))
    )]
    return " + ".join(parts) if parts else "0"


def verify_axioms(hopf: FreeHopf, max_degree: int, seed: int) -> AxiomReport:
    """Check coassociativity, the counit laws, product compatibility, both
    antipode composites, the antimorphism law and agreement with Takeuchi,
    over every basis element up to max_degree plus seeded random elements.
    Each axiom reports the first witness (an element or a pair) it fails on."""
    rng = random.Random(seed)
    element, mul = hopf.element, hopf.element._mul_key
    levels = {n: list(hopf.basis(n)) for n in range(max_degree + 1)}

    def random_element(homogeneous: bool) -> LinearCombination:
        if homogeneous:
            degrees = [rng.randint(0, max_degree)] * 3
        else:
            degrees = [rng.randint(0, max_degree) for _ in range(3)]
        return element((rng.choice(levels[n]), rng.randint(-3, 3)) for n in degrees)

    singletons = [element.basis(key) for n in range(max_degree + 1) for key in levels[n]]
    mixed = [random_element(homogeneous=False) for _ in range(10)]
    homogeneous = [random_element(homogeneous=True) for _ in range(10)]
    pool = singletons + mixed

    def random_pairs() -> Iterator[tuple]:
        # drawn lazily, so the pairs an axiom skips after a failure go to the next
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
        return takeuchi(hopf, a, degree) == hopf.antipode(a)

    # witnesses are argument tuples, made lazily: zip(xs) yields (x,) per x
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
