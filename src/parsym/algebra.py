"""The graded Hopf algebra on partition diagrams, over the H-basis.

Basis words are partition diagrams; the product ``a * b`` is the bilinear
extension of horizontal concatenation, so the algebra is free on the
tensor-irreducible diagrams.  The maps are read off a word's bullet cuts,
the positions c where it splits as x_c . y_c.  The coproduct of a generator
pi is the sum of its splits H(x_c) (x) H(y_c), plus the two with an empty
side, built once; a word's is the product of its generators' cached images.

The antipode and the E-basis are one regrouping sum over the sets C of a
word's bullet cuts, which are its tensor factors': sign * (-1)^|C| H(the
word with every block split at C).  One scan of the word's column spans
gives its tensor and bullet cuts.  E_d is this sum on d, signed
(-1)^(factors + degree); the antipode of a word of r factors, the reversed
product of theirs, is this sum on its factors in reverse order, signed
(-1)^r.  Takeuchi's formula is an independent oracle.
``FreeHopf.on_generators`` builds the cached maps of ``PARSYM``, whose
methods are ``coproduct``, ``antipode`` and ``counit``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hopfcheck
from .diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    bullet_cuts,
    column_cuts,
    enumerate_diagrams,
    regroupings,
    render,
    split,
    tensor,
    tensor_cuts,
    tensor_factorize,
    tensor_fold,
)
from .linear import REGROUPING_CUT_CAP, FreeHopf, LinearCombination, TensorSquare

TAKEUCHI_CAP = 4
MATRIX_CAP = 5


class ParSymElement(LinearCombination):
    """Integer linear combination of diagram basis words."""

    _mul_key = staticmethod(tensor)
    unit = EMPTY_DIAGRAM


class DiagramTensor(TensorSquare):
    factor = ParSymElement


def h(d: PartitionDiagram) -> ParSymElement:
    """The basis element indexed by d."""
    return ParSymElement.basis(d)


def _factors(d: PartitionDiagram) -> list[PartitionDiagram]:
    # the tensor-irreducible generators of a word; none for the empty word
    return tensor_factorize(d) if d.order else []


def _factor_count(d: PartitionDiagram) -> int:
    return len(tensor_cuts(d)) + 1 if d.order else 0


def _generator_split_pairs(pi: PartitionDiagram) -> tuple[tuple[PartitionDiagram, ...], ...]:
    # the splits pi = x . y, empty sides included, left to right
    return (
        (EMPTY_DIAGRAM, pi),
        *(tuple(split(pi, [c])) for c in bullet_cuts(pi)),
        (pi, EMPTY_DIAGRAM),
    )


def _regroupings(d: PartitionDiagram, cuts: list[int], sign: int) -> ParSymElement:
    # sign * (-1)^|C| * H(d split at C) over the sets C of d's bullet cuts;
    # distinct C, distinct words, so the dict needs no collecting
    if len(cuts) > REGROUPING_CUT_CAP:
        raise CapExceeded(
            f"{len(cuts)} bullet cuts exceed the cap {REGROUPING_CUT_CAP} (2^{len(cuts)} terms)"
        )
    return ParSymElement._of({word: sign * (-1) ** n for n, word in regroupings(d, cuts)})


def _antipode_word(d: PartitionDiagram) -> ParSymElement:
    # S(H_pi1...pir) = S(H_pir)...S(H_pi1), one regrouping sum on the reversed word
    at, cuts = column_cuts(d)
    if at:
        d = tensor_fold(reversed(split(d, at)))
        cuts = column_cuts(d)[1]
    return _regroupings(d, cuts, (-1) ** (len(at) + 1) if d.order else 1)


PARSYM = FreeHopf.on_generators(
    _factors,
    lambda pi: DiagramTensor(dict.fromkeys(_generator_split_pairs(pi), 1)),
    _antipode_word,
    name="parsym",
    element=ParSymElement,
    tensor=DiagramTensor,
    degree=lambda d: d.order,
    basis=enumerate_diagrams,
    render=render,
)
coproduct, antipode, counit = PARSYM.coproduct, PARSYM.antipode, PARSYM.counit


def takeuchi_antipode(a: ParSymElement) -> ParSymElement:
    """Antipode by Takeuchi's alternating sum; independent oracle for
    :func:`antipode`.  Requires a homogeneous element within the cap."""
    degree = PARSYM.homogeneous_degree(a)
    if degree > TAKEUCHI_CAP:
        raise CapExceeded(f"Takeuchi evaluation capped at degree {TAKEUCHI_CAP}")
    return hopfcheck.takeuchi(PARSYM, a, degree)


def e_basis_expand(d: PartitionDiagram) -> ParSymElement:
    """The elementary-like basis element indexed by d, in the H-basis."""
    at, cuts = column_cuts(d)
    return _regroupings(d, cuts, (-1) ** (len(at) + 1 + d.order) if d.order else 1)


def character_zeta(a: ParSymElement) -> int:
    """The canonical multiplicative character: 1 on a basis word iff every
    tensor-irreducible factor is bullet-irreducible (so 1 on both order-one
    diagrams and on the empty diagram), extended linearly."""
    # a word's bullet cuts are those of its factors
    return sum(coeff for d, coeff in a.terms.items() if not bullet_cuts(d))


@dataclass(frozen=True)
class EHMatrix:
    """Change of basis from the E-family to the H-basis in one degree.  Row i
    is E_{basis[i]} as sparse (column, coeff) pairs, sorted by column."""

    degree: int
    basis: tuple[PartitionDiagram, ...]
    matrix: tuple[tuple[tuple[int, int], ...], ...]
    determinant: int


def e_h_matrix(n: int) -> EHMatrix:
    """Expand every degree-n E-element in the H-basis over the enumeration
    ordering and report the determinant (a unit iff E is a basis).  Each
    E_w is checked to be +-H_w plus words with more tensor factors, so the
    matrix is triangular by factor count and det is the diagonal product."""
    if n > MATRIX_CAP:
        raise CapExceeded(f"matrix construction capped at degree {MATRIX_CAP}")
    basis = tuple(enumerate_diagrams(n))
    index = {d: i for i, d in enumerate(basis)}
    rows = []
    det = 1
    for d in basis:
        length = _factor_count(d)
        terms = e_basis_expand(d).terms
        if any(word != d and _factor_count(word) <= length for word in terms):
            raise ArithmeticError("matrix is not triangular by word length")
        if terms.get(d) not in (1, -1):
            raise ArithmeticError("diagonal entry not a unit")
        det *= terms[d]
        rows.append(tuple(sorted((index[word], c) for word, c in terms.items())))
    return EHMatrix(n, basis, tuple(rows), det)


def verify_hopf_axioms(max_degree: int, seed: int = 20240) -> "hopfcheck.AxiomReport":
    """Check all Hopf axioms on every basis diagram of order <= max_degree,
    plus seeded random elements and pairs.  See :mod:`parsym.hopfcheck`.
    Refuses degrees above the Takeuchi cap, which the last axiom needs."""
    if max_degree > TAKEUCHI_CAP:
        raise CapExceeded(f"Hopf axiom check capped at degree {TAKEUCHI_CAP}")
    return hopfcheck.verify_axioms(PARSYM, max_degree, seed=seed)
