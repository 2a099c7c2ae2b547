"""The graded Hopf algebra on partition diagrams, over the H-basis.

Basis words are partition diagrams; the product is the bilinear extension
of horizontal concatenation, so the algebra is free on the
tensor-irreducible diagrams.  The coproduct of an irreducible generator
with bullet decomposition t_1 . t_2 ... t_m is the sum of the m+1
prefix/suffix splits

    sum_j  H(t_1 ... t_j) (x) H(t_{j+1} ... t_m),

the j = 0 and j = m terms carrying the empty diagram; on a reducible word
it is the product of the factors' coproducts.  A brute-force enumeration of
all bullet splittings (``coproduct_pairs_oracle``) is kept alongside as an
independent check of the split rule.

The antipode acts on an irreducible generator by the signed sum over
compositions of m of regrouped bullet factors, extended as an algebra
antimorphism; Takeuchi's alternating formula is implemented separately as
an oracle.  The elementary-like basis E differs from S only by the global
sign (-1)^degree on generators and is extended multiplicatively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import hopfcheck
from .diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet,
    bullet_decompose,
    bullet_fold,
    enumerate_diagrams,
    is_tensor_irreducible,
    m_statistic,
    render,
    sort_key,
    tensor,
    tensor_factorize,
)
from .linear import FreeHopf, LinearCombination, multiplicative
from .sequences import compositions

DEFAULT_TAKEUCHI_CAP = 4
DEFAULT_ORACLE_CAP = 4
DEFAULT_MATRIX_CAP = 5


class ParSymElement(LinearCombination):
    """Integer linear combination of diagram basis words."""

    _mul_key = staticmethod(tensor)

    @classmethod
    def one(cls) -> "ParSymElement":
        return cls.basis(EMPTY_DIAGRAM)

    def degrees(self) -> set[int]:
        return {d.order for d in self.terms}

    def homogeneous_degree(self) -> int:
        degrees = self.degrees()
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else 0


class DiagramTensor(LinearCombination):
    """Integer linear combination of ordered pairs of diagrams."""

    @staticmethod
    def _mul_key(left, right):
        return (tensor(left[0], right[0]), tensor(left[1], right[1]))

    @classmethod
    def one(cls) -> "DiagramTensor":
        return cls.basis((EMPTY_DIAGRAM, EMPTY_DIAGRAM))


def h(d: PartitionDiagram) -> ParSymElement:
    """The basis element indexed by d."""
    return ParSymElement.basis(d)


def multiply(a: ParSymElement, b: ParSymElement) -> ParSymElement:
    return a * b


def _factors(d: PartitionDiagram) -> list[PartitionDiagram]:
    # the tensor-irreducible generators of a word; none for the empty word
    return tensor_factorize(d) if d.order else []


@functools.lru_cache(maxsize=1 << 16)
def _generator_split_pairs(
    pi: PartitionDiagram,
) -> tuple[tuple[PartitionDiagram, PartitionDiagram], ...]:
    # prefix/suffix splits of the bullet decomposition of an irreducible word
    factors = bullet_decompose(pi)
    prefixes = [EMPTY_DIAGRAM]
    for f in factors:
        prefixes.append(bullet(prefixes[-1], f))
    suffixes = [EMPTY_DIAGRAM]
    for f in reversed(factors):
        suffixes.append(bullet(f, suffixes[-1]))
    suffixes.reverse()
    return tuple(zip(prefixes, suffixes))


@functools.lru_cache(maxsize=1 << 16)
def _coproduct_word(d: PartitionDiagram) -> DiagramTensor:
    return multiplicative(
        _factors(d),
        lambda pi: DiagramTensor(dict.fromkeys(_generator_split_pairs(pi), 1)),
        DiagramTensor.one(),
    )


def coproduct(a: ParSymElement) -> DiagramTensor:
    return a.extend(_coproduct_word, DiagramTensor)


def coproduct_pairs(pi: PartitionDiagram) -> list[tuple[PartitionDiagram, PartitionDiagram]]:
    """Production split-pairs of an irreducible generator, sorted."""
    if not is_tensor_irreducible(pi):
        raise ValueError("expected a tensor-irreducible diagram")
    return sorted(
        _generator_split_pairs(pi), key=lambda p: (sort_key(p[0]), sort_key(p[1]))
    )


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
    return sorted(found, key=lambda p: (sort_key(p[0]), sort_key(p[1])))


def counit(a: ParSymElement) -> int:
    return a.coefficient(EMPTY_DIAGRAM)


@functools.lru_cache(maxsize=1 << 16)
def _antipode_generator(pi: PartitionDiagram, degree_sign: bool) -> ParSymElement:
    # signed regroupings of the bullet factors; degree_sign adds (-1)^order
    factors = bullet_decompose(pi)
    m = len(factors)
    terms: dict[PartitionDiagram, int] = {}
    for alpha in compositions(m):
        sign = -1 if len(alpha) % 2 else 1
        if degree_sign and pi.order % 2:
            sign = -sign
        word = EMPTY_DIAGRAM
        pos = 0
        for part in alpha:
            word = tensor(word, bullet_fold(factors[pos : pos + part]))
            pos += part
        terms[word] = terms.get(word, 0) + sign
    return ParSymElement(terms)


@functools.lru_cache(maxsize=1 << 16)
def _antipode_word(d: PartitionDiagram) -> ParSymElement:
    return multiplicative(
        reversed(_factors(d)),
        lambda pi: _antipode_generator(pi, False),
        ParSymElement.one(),
    )


def antipode(a: ParSymElement) -> ParSymElement:
    """Closed-form antipode: antimorphism extension of the signed
    regrouping sum on irreducible generators."""
    return a.extend(_antipode_word)


def takeuchi_antipode(
    a: ParSymElement, max_degree: int = DEFAULT_TAKEUCHI_CAP
) -> ParSymElement:
    """Antipode by Takeuchi's alternating sum; independent oracle for
    :func:`antipode`.  Requires a homogeneous element within the cap."""
    degree = a.homogeneous_degree()
    if degree > max_degree:
        raise CapExceeded(f"Takeuchi evaluation capped at degree {max_degree}")
    return hopfcheck.takeuchi(PARSYM, a, degree)


def e_basis_expand(d: PartitionDiagram) -> ParSymElement:
    """The elementary-like basis element indexed by d, in the H-basis."""
    return multiplicative(
        _factors(d), lambda pi: _antipode_generator(pi, True), ParSymElement.one()
    )


def character_zeta(a: ParSymElement) -> int:
    """The canonical multiplicative character: 1 on a basis word iff every
    tensor-irreducible factor is bullet-irreducible (so 1 on both order-one
    diagrams and on the empty diagram), extended linearly."""
    return sum(
        coeff
        for d, coeff in a.terms.items()
        if all(m_statistic(pi) == 1 for pi in _factors(d))
    )


@dataclass(frozen=True)
class EHMatrix:
    """Change of basis from the E-family to the H-basis in one degree.  Row i
    is E_{basis[i]} as sparse (column, coeff) pairs, sorted by column."""

    degree: int
    basis: tuple[PartitionDiagram, ...]
    matrix: tuple[tuple[tuple[int, int], ...], ...]
    determinant: int


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


def e_h_matrix(n: int, max_degree: int = DEFAULT_MATRIX_CAP) -> EHMatrix:
    """Expand every degree-n E-element in the H-basis over the enumeration
    ordering and report the determinant (a unit iff E is a basis).  Each
    E_w is checked to be +-H_w plus words with more tensor factors, so the
    matrix is triangular by factor count and det is the diagonal product."""
    if n > max_degree:
        raise CapExceeded(f"matrix construction capped at degree {max_degree}")
    basis = tuple(enumerate_diagrams(n))
    index = {d: i for i, d in enumerate(basis)}
    rows = []
    det = 1
    for d in basis:
        length = len(_factors(d))
        terms = e_basis_expand(d).terms
        if any(word != d and len(_factors(word)) <= length for word in terms):
            raise ArithmeticError("matrix is not triangular by word length")
        if terms.get(d) not in (1, -1):
            raise ArithmeticError("diagonal entry not a unit")
        det *= terms[d]
        rows.append(tuple(sorted((index[word], c) for word, c in terms.items())))
    return EHMatrix(n, basis, tuple(rows), det)


PARSYM = FreeHopf(
    name="parsym",
    element=ParSymElement,
    tensor=DiagramTensor,
    degree=lambda d: d.order,
    coproduct_word=_coproduct_word,
    antipode_word=_antipode_word,
    basis=enumerate_diagrams,
    render=render,
)


def verify_hopf_axioms(max_degree: int, seed: int = 20240) -> "hopfcheck.AxiomReport":
    """Check all Hopf axioms on every basis diagram of order <= max_degree,
    plus seeded random elements and pairs.  See :mod:`parsym.hopfcheck`.
    Refuses degrees above the Takeuchi cap, which the last axiom needs."""
    if max_degree > DEFAULT_TAKEUCHI_CAP:
        raise CapExceeded(f"Hopf axiom check capped at degree {DEFAULT_TAKEUCHI_CAP}")
    return hopfcheck.verify_axioms(PARSYM, max_degree, seed=seed)
