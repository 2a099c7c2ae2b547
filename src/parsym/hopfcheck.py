"""Generic verification harness for graded connected Hopf algebras that are
free as algebras.

Works on elements through a :class:`parsym.linear.FreeHopf` description:
elements of ``hopf.element`` multiply as words, elements of ``hopf.tensor``
multiply componentwise, and ``hopf.coproduct`` / ``hopf.antipode`` are the
linear extensions of the cached word maps.  Multi-leg tensors, which have no
product, are plain :class:`LinearCombination` values on tuple keys.

Each law on one element is one signed sum: both sides go into one dict,
one of them negated, and the law holds iff every coefficient is 0.  The
laws on a single element run law by law over blocks of the pool, each
element's coproduct fetched once per block.

Takeuchi's formula  S = sum_k (-1)^k mul^(k-1) proj^(x k) Delta^(k-1),
with proj killing degree zero, is evaluated here on (prefix product, last
leg) pairs, summed into one element, and used as the oracle for the
closed-form antipode; folding legs to their degrees instead, the same walk
gives NSym's QSym image.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

from .linear import FreeHopf, LinearCombination

# pool elements whose coproducts are held at once: a law checks a whole
# block before the next law starts.  Law by law runs about 15% faster than
# element by element at degree 4 (blocks of 256 to 65,536 alike), and a
# bounded block keeps degree 5 from holding every pool coproduct at once
POOL_BLOCK = 1 << 12

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
    k-leg term folded by the product, summed into one element.  The sum
    truncates at k = degree because each projected leg has positive degree."""
    mul, element = hopf.element._mul_key, hopf.element
    levels = zip(range(1, degree + 1), folded_coproducts(hopf, a, mul, element.unit))
    return element(chain(
        [(element.unit, hopf.counit(a))],
        ((mul(p, y), (-1) ** k * c) for k, pairs in levels for (p, y), c in pairs.terms.items()),
    ))


def _vanishes(items: Iterable[tuple]) -> bool:
    """True iff the (key, coeff) items sum to 0 on every key: a law holds iff
    its two sides, one negated, cancel in one signed sum."""
    total: dict = {}
    get = total.get
    for key, coeff in items:
        total[key] = get(key, 0) + coeff
    return not any(total.values())


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
    element, mul, deg = hopf.element, hopf.element._mul_key, hopf.degree
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

    # the laws on one pool element read its coproduct; each is one signed sum

    def coproduct_terms(word):
        return hopf.coproduct_word(word).terms.items()

    def antipode_terms(word):
        return hopf.antipode_word(word).terms.items()

    def coassociative(a, delta) -> bool:
        # (id x Delta) Delta - (Delta x id) Delta = 0
        pairs = delta.terms.items()
        return _vanishes(chain(
            (((u, v, y), coeff * c) for (x, y), coeff in pairs for (u, v), c in coproduct_terms(x)),
            (((x, u, v), -coeff * c) for (x, y), coeff in pairs for (u, v), c in coproduct_terms(y)),
        ))

    def counital(a, delta) -> bool:
        # (eps x id) Delta - id = 0 = (id x eps) Delta - id, the two laws keyed apart
        pairs = delta.terms.items()
        return _vanishes(chain(
            (((law, key), -c) for key, c in a.terms.items() for law in (0, 1)),
            (((0, y), coeff) for (x, y), coeff in pairs if deg(x) == 0),
            (((1, x), coeff) for (x, y), coeff in pairs if deg(y) == 0),
        ))

    def antipode_left(a, delta) -> bool:
        # mul (S x id) Delta - unit eps = 0
        return _vanishes(chain(
            [(element.unit, -hopf.counit(a))],
            ((mul(k, y), coeff * c) for (x, y), coeff in delta.terms.items() for k, c in antipode_terms(x)),
        ))

    def antipode_right(a, delta) -> bool:
        # mul (id x S) Delta - unit eps = 0
        return _vanishes(chain(
            [(element.unit, -hopf.counit(a))],
            ((mul(x, k), coeff * c) for (x, y), coeff in delta.terms.items() for k, c in antipode_terms(y)),
        ))

    def compatible(a, b) -> bool:
        return hopf.coproduct(a * b) == hopf.coproduct(a) * hopf.coproduct(b)

    def antimorphic(a, b) -> bool:
        return hopf.antipode(a * b) == hopf.antipode(b) * hopf.antipode(a)

    def agrees_with_takeuchi(a) -> bool:
        degree = max((deg(k) for k in a.terms), default=0)
        return takeuchi(hopf, a, degree) == hopf.antipode(a)

    # the pool laws run law by law over each block of the pool, every
    # element's coproduct fetched once per block and dropped after it; they
    # draw nothing from rng, so the pairs come after
    pool_laws = (
        ("coassociativity", coassociative),
        ("counit", counital),
        ("antipode-left", antipode_left),
        ("antipode-right", antipode_right),
    )
    bad: dict[str, tuple | None] = dict.fromkeys(name for name, _ in pool_laws)
    for start in range(0, len(pool), POOL_BLOCK):
        open_laws = [(name, holds) for name, holds in pool_laws if bad[name] is None]
        if not open_laws:
            break
        block = [(a, hopf.coproduct(a)) for a in pool[start : start + POOL_BLOCK]]
        for name, holds in open_laws:
            bad[name] = next(((a,) for a, delta in block if not holds(a, delta)), None)
    # witnesses are argument tuples, made lazily: zip(xs) yields (x,) per x
    for name, witnesses, holds in (
        ("compatibility", random_pairs(), compatible),
        ("antihomomorphism", random_pairs(), antimorphic),
        ("takeuchi", zip(singletons + homogeneous), agrees_with_takeuchi),
    ):
        bad[name] = next((w for w in witnesses if not holds(*w)), None)
    results = []
    for name in AXIOM_NAMES:
        text = None if bad[name] is None else "at " + " ; ".join(_describe(hopf, a) for a in bad[name])
        results.append(AxiomResult(name, bad[name] is None, text))
    return AxiomReport(hopf.name, max_degree, tuple(results))
