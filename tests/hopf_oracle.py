"""Test oracle for the Hopf maps on generators, independent of the cut rule.

The library reads the split pairs, the antipode and the E-basis straight
off a word's bullet cuts (``split``, ``regroupings``).  This module keeps
the formulas as the paper states them: take a generator apart into its
bullet factors t_1 . ... . t_m, rebuild every prefix and suffix, or every
regrouping over a composition of m, with ``bullet_fold`` and ``tensor``,
and extend multiplicatively over the tensor factors with a plain
``functools.reduce``, so no product code is shared with the library.
"""

import functools
import operator

from parsym.algebra import ParSymElement
from parsym.diagrams import (
    EMPTY_DIAGRAM,
    PartitionDiagram,
    bullet_decompose,
    bullet_fold,
    tensor,
    tensor_factorize,
)
from parsym.sequences import compositions


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
