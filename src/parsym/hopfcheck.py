"""Generic verification harness for graded connected Hopf algebras that are
free as algebras.

Works on elements through a :class:`parsym.linear.FreeHopf` description:
elements of ``hopf.element`` multiply as words, elements of ``hopf.tensor``
multiply componentwise, and ``hopf.coproduct`` / ``hopf.antipode`` are the
linear extensions of the cached word maps.  Multi-leg tensors, which have no
product, are plain :class:`LinearCombination` values on tuple keys.

Each law on one element is one signed sum: both sides go into one dict,
one of them negated, and the law holds iff every coefficient is 0.  Each
key's sum is a one-item list, so a key is hashed once per term.  The laws
on a single element run law by law over blocks of the pool, each
element's coproduct fetched once per block.

Takeuchi's formula  S = sum_k (-1)^k mul^(k-1) proj^(x k) Delta^(k-1),
with proj killing degree zero, is evaluated here on (prefix product, last
leg) pairs, every level summed into one dict, and used as the oracle for
the closed-form antipode; folding legs to their degrees instead, the same
walk gives NSym's QSym image (``folded_coproducts``).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter

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


def _folded_levels(hopf: FreeHopf, a: LinearCombination, fold: Callable, start) -> Iterator[dict]:
    # the walk of folded_coproducts, each level a plain (prefix, last leg) -> coeff dict
    deg, coproduct_word = hopf.degree, hopf.coproduct_word
    pairs = {(start, key): c for key, c in a.terms.items() if deg(key)}
    while pairs:
        yield pairs
        level: dict = {}
        for (p, y), coeff in pairs.items():
            for (u, v), c in coproduct_word(y).terms.items():
                if deg(u) and deg(v):
                    key = (fold(p, u), v)
                    value = level.get(key, 0) + coeff * c
                    if value:
                        level[key] = value
                    else:
                        del level[key]
        pairs = level


def folded_coproducts(hopf: FreeHopf, a: LinearCombination, fold: Callable, start) -> Iterator[LinearCombination]:
    """The coproduct iterated to 1, 2, 3, ... legs of positive degree, each
    k-leg term kept as the pair (its first k-1 legs folded into ``start`` by
    ``fold(prefix, leg)`` from the left, its last leg); only the last leg is
    split again, and the walk stops when no such term is left."""
    return map(LinearCombination._of, _folded_levels(hopf, a, fold, start))


def takeuchi(hopf: FreeHopf, a: LinearCombination, degree: int) -> LinearCombination:
    """Evaluate Takeuchi's antipode formula on an element whose nonzero
    terms all live in degrees <= degree, with the first k-1 legs of each
    k-leg term folded by the product, every level summed into one dict.  The
    sum truncates at k = degree because each projected leg has positive degree."""
    mul, element = hopf.element._mul_key, hopf.element
    # each word's sum is a one-item list, as in _vanishes
    total = {element.unit: [hopf.counit(a)]}
    cell = total.setdefault
    for k, pairs in zip(range(1, degree + 1), _folded_levels(hopf, a, mul, element.unit)):
        sign = (-1) ** k
        for (p, y), c in pairs.items():
            cell(mul(p, y), [0])[0] += sign * c
    return element._of({key: c for key, (c,) in total.items() if c})


def _vanishes(total: dict) -> bool:
    """True iff every key of a signed sum sums to 0: a law holds iff its two
    sides, one negated, cancel.  Each key's sum is a one-item list, added to
    through ``total.setdefault(key, [0])``, so a key is hashed once per term."""
    return not any(map(itemgetter(0), total.values()))


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
    coproduct_word, antipode_word = hopf.coproduct_word, hopf.antipode_word

    def coassociative(a, delta) -> bool:
        # (id x Delta) Delta - (Delta x id) Delta = 0
        total: dict = {}
        cell = total.setdefault
        for (x, y), coeff in delta.terms.items():
            for (u, v), c in coproduct_word(x).terms.items():
                cell((u, v, y), [0])[0] += coeff * c
            for (u, v), c in coproduct_word(y).terms.items():
                cell((x, u, v), [0])[0] -= coeff * c
        return _vanishes(total)

    def counital(a, delta) -> bool:
        # (eps x id) Delta - id = 0 = (id x eps) Delta - id, the two laws keyed apart
        total = {(law, key): [-c] for key, c in a.terms.items() for law in (0, 1)}
        cell = total.setdefault
        for (x, y), coeff in delta.terms.items():
            if deg(x) == 0:
                cell((0, y), [0])[0] += coeff
            if deg(y) == 0:
                cell((1, x), [0])[0] += coeff
        return _vanishes(total)

    def antipode_left(a, delta) -> bool:
        # mul (S x id) Delta - unit eps = 0
        total = {element.unit: [-hopf.counit(a)]}
        cell = total.setdefault
        for (x, y), coeff in delta.terms.items():
            for k, c in antipode_word(x).terms.items():
                cell(mul(k, y), [0])[0] += coeff * c
        return _vanishes(total)

    def antipode_right(a, delta) -> bool:
        # mul (id x S) Delta - unit eps = 0
        total = {element.unit: [-hopf.counit(a)]}
        cell = total.setdefault
        for (x, y), coeff in delta.terms.items():
            for k, c in antipode_word(y).terms.items():
                cell(mul(x, k), [0])[0] += coeff * c
        return _vanishes(total)

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
