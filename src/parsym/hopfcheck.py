"""Generic verification harness for graded connected Hopf algebras that are
free as algebras.

Works on elements through a :class:`parsym.linear.FreeHopf` description:
elements of ``hopf.element`` multiply as words, elements of ``hopf.tensor``
multiply componentwise, and ``hopf.coproduct`` / ``hopf.antipode`` are the
linear extensions of the cached word maps.  Multi-leg tensors, which have no
product, are plain :class:`LinearCombination` values on tuple keys.

Takeuchi's formula  S = sum_k (-1)^k mul^(k-1) proj^(x k) Delta^(k-1),
with proj killing degree zero, is evaluated here on (prefix product, last
leg) pairs and used as the oracle for the closed-form antipode.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
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


def _degree_zero(hopf: FreeHopf, a: LinearCombination) -> LinearCombination:
    # the unit component counit(a) * 1 of a connected graded algebra
    return hopf.element(
        (key, coeff) for key, coeff in a.terms.items() if hopf.degree(key) == 0
    )


def iterated_coproducts(hopf: FreeHopf, a: LinearCombination) -> Iterator[LinearCombination]:
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


def takeuchi(hopf: FreeHopf, a: LinearCombination, degree: int) -> LinearCombination:
    """Evaluate Takeuchi's antipode formula on an element whose nonzero
    terms all live in degrees <= degree, keeping each k-leg term as (product
    of its first k-1 legs, last leg) and splitting only the last leg.  The sum
    truncates at k = degree because each projected leg has positive degree."""
    mul, deg = hopf.element._mul_key, hopf.degree
    result = _degree_zero(hopf, a)
    pairs = LinearCombination(((hopf.element.unit, key), c) for key, c in a.terms.items() if deg(key))
    for k in range(1, degree + 1):
        result = result + hopf.element((mul(p, y), (-1) ** k * c) for (p, y), c in pairs.terms.items())
        pairs = LinearCombination(
            ((mul(p, u), v), coeff * c)
            for (p, y), coeff in pairs.terms.items()
            for (u, v), c in hopf.coproduct_word(y).terms.items()
            if deg(u) and deg(v)
        )
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


def verify_axioms(hopf: FreeHopf, max_degree: int, seed: int = 20240) -> AxiomReport:
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
        ) == _degree_zero(hopf, a)

    def antipode_right(a) -> bool:
        # mul (id x S) Delta = unit eps
        return element(
            (mul(x, k), coeff * c)
            for (x, y), coeff in hopf.coproduct(a).terms.items()
            for k, c in hopf.antipode_word(y).terms.items()
        ) == _degree_zero(hopf, a)

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
