"""The graded Hopf algebra on partition diagrams, over the H-basis.

Basis words are partition diagrams; the product ``a * b`` is the bilinear
extension of horizontal concatenation, so the algebra is free on the
tensor-irreducible diagrams.  The maps are read off a word's bullet cuts,
the positions c where it splits as x_c . y_c.  The coproduct of a generator
pi is the sum of its splits H(x_c) (x) H(y_c), plus the two with an empty
side, built once; a word's is the product of its generators' cached images.

The antipode and the E-basis are one regrouping sum over the sets C of a
word's bullet cuts, which are its tensor factors': sign * (-1)^|C| H(the
word with every block split at C).  E_d is this sum on d, signed
(-1)^(factors + degree); the antipode of a word of r factors, the reversed
product of theirs, is this sum on its factors in reverse order, signed
(-1)^r.  A word without bullet cuts is its own sum, one term, so a
cut-free generator p has S(p) = -p, E_p = (-1)^(order + 1) p and
Delta(p) = 1 (x) p + p (x) 1.  Takeuchi's formula is an independent oracle.

Every map reads a word's tensor and bullet cuts from one ``column_cuts``
scan, made once per word: a cache of ``WORD_CACHE_SIZE`` words, as large
as the word maps' caches, holds them as tuples (one shared ``((), ())``
for the words with no cut), and splitting a word into its factors enters
each factor's too, the word's bullet cuts within its columns, shifted, so
no factor is scanned again.  ``FreeHopf.on_generators`` builds the cached
maps of ``PARSYM``, whose methods are ``coproduct``, ``antipode`` and
``counit``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from . import hopfcheck
from .diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    column_cuts,
    enumerate_diagrams,
    regroupings,
    render,
    split,
    tensor,
    tensor_fold,
)
from .linear import REGROUPING_CUT_CAP, WORD_CACHE_SIZE, FreeHopf, LinearCombination, TensorSquare

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


_CutScan = tuple[tuple[int, ...], tuple[int, ...]]
_CUT_FREE: _CutScan = ((), ())
# each word's (tensor cuts, bullet cuts) by its labels, hashed in C; the
# oldest entry goes past the bound
_SCANS: OrderedDict[tuple[int, ...], _CutScan] = OrderedDict()


def _keep(d: PartitionDiagram, scan: _CutScan) -> _CutScan:
    _SCANS[d.labels] = scan
    if len(_SCANS) > WORD_CACHE_SIZE:
        _SCANS.popitem(last=False)
    return scan


def _scan(d: PartitionDiagram) -> _CutScan:
    # one column_cuts scan per word, read by every map below
    scan = _SCANS.get(d.labels)
    if scan is None:
        at, bullets = column_cuts(d)
        scan = _keep(d, (tuple(at), tuple(bullets)) if at or bullets else _CUT_FREE)
    return scan


def _factors(d: PartitionDiagram) -> list[PartitionDiagram]:
    # the tensor-irreducible generators of a word, none for the empty word;
    # each generator's bullet cuts are the word's within its columns, shifted
    at, bullets = _scan(d)
    if not at:
        return [d] if d.order else []
    gens = split(d, at)
    for g, lo, hi in zip(gens, (0, *at), (*at, d.order)):
        if g.labels not in _SCANS:
            cuts = tuple(c - lo for c in bullets if lo < c < hi)
            _keep(g, ((), cuts) if cuts else _CUT_FREE)
    return gens


def _factor_count(d: PartitionDiagram) -> int:
    return len(_scan(d)[0]) + 1 if d.order else 0


def _generator_split_pairs(pi: PartitionDiagram) -> tuple[tuple[PartitionDiagram, ...], ...]:
    # the splits pi = x . y, empty sides included, left to right
    return (
        (EMPTY_DIAGRAM, pi),
        *(tuple(split(pi, [c])) for c in _scan(pi)[1]),
        (pi, EMPTY_DIAGRAM),
    )


def _regroupings(d: PartitionDiagram, cuts: Sequence[int], sign: int) -> ParSymElement:
    # sign * (-1)^|C| * H(d split at C) over the sets C of d's bullet cuts;
    # distinct C, distinct words, so the dict needs no collecting.  A
    # cut-free word is its own one term
    if not cuts:
        return ParSymElement._of({d: sign})
    if len(cuts) > REGROUPING_CUT_CAP:
        raise CapExceeded(
            f"{len(cuts)} bullet cuts exceed the cap {REGROUPING_CUT_CAP} (2^{len(cuts)} terms)"
        )
    return ParSymElement._of({word: sign * (-1) ** n for n, word in regroupings(d, cuts)})


def _antipode_word(d: PartitionDiagram) -> ParSymElement:
    # S(H_pi1...pir) = S(H_pir)...S(H_pi1), one regrouping sum on the reversed
    # word, whose bullet cuts are its factors', moved with them
    at, cuts = _scan(d)
    if at:
        gens = _factors(d)[::-1]
        d, cuts, lo = tensor_fold(gens), [], 0
        for g in gens:
            cuts += [lo + c for c in _scan(g)[1]]
            lo += g.order
    return _regroupings(d, cuts, (-1) ** (len(at) + 1) if d.order else 1)


PARSYM = FreeHopf.on_generators(
    _factors,
    # distinct splits, distinct pairs, so the dict needs no collecting
    lambda pi: DiagramTensor._of(dict.fromkeys(_generator_split_pairs(pi), 1)),
    _antipode_word,
    name="parsym",
    element=ParSymElement,
    tensor=DiagramTensor,
    degree=attrgetter("order"),
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
    at, cuts = _scan(d)
    return _regroupings(d, cuts, (-1) ** (len(at) + 1 + d.order) if d.order else 1)


def character_zeta(a: ParSymElement) -> int:
    """The canonical multiplicative character: 1 on a basis word iff every
    tensor-irreducible factor is bullet-irreducible (so 1 on both order-one
    diagrams and on the empty diagram), extended linearly."""
    # a word's bullet cuts are those of its factors
    return sum(coeff for d, coeff in a.terms.items() if not _scan(d)[1])


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
