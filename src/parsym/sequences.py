"""Exact integer sequence machinery: Bell numbers, the Boolean transform,
irreducible-generator counts, the generating-function identity check, and
the closed dimension formulas of the diagram families.

Sequences are plain lists of Python ints read 1-based: ``terms[0]`` is the
value at n = 1.  Everything here is exact; no floats.

The Boolean transform b of a sequence a is defined by the generating
function identity  sum b_n x^n = 1 - 1/(1 + sum a_n x^n),  and computed by
the convolution recurrence  b_n = a_n - sum_{j<n} b_j a_{n-j}.
``verify_gf_identity`` checks the irreducible counts against the identity
itself, through the reciprocal's coefficient recurrence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .diagrams import CapExceeded
from .families import Family
from .linear import REGROUPING_CUT_CAP


def _bell_numbers(n: int) -> list[int]:
    """B_0, ..., B_n (just B_0 for n <= 0) from one walk of the Bell triangle."""
    out, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[0])
    return out


def bell(n: int) -> int:
    """Bell number B_n via the Bell triangle; B_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _bell_numbers(n)[-1]


def bell_sequence(n: int) -> list[int]:
    """B_1, ..., B_n."""
    return _bell_numbers(n)[1:]


def even_bell_sequence(n: int) -> list[int]:
    """B_2, B_4, ..., B_{2n}: the dimensions of the diagram algebras."""
    return _bell_numbers(2 * n)[2::2]


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) compositions of n as bar masks, within the kernel's budget."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n - 1 > REGROUPING_CUT_CAP:
        raise CapExceeded(f"direct composition iteration capped at n = {REGROUPING_CUT_CAP + 1}")
    if n == 0:
        yield ()
        return
    for mask in range(1 << (n - 1)):
        parts = []
        last = 0
        for gap in range(1, n):
            if mask >> (gap - 1) & 1:
                parts.append(gap - last)
                last = gap
        parts.append(n - last)
        yield tuple(parts)


def boolean_transform(terms: Sequence[int]) -> list[int]:
    """Boolean transform by the O(n^2) convolution recurrence."""
    out: list[int] = []
    for n in range(1, len(terms) + 1):
        value = terms[n - 1]
        for j in range(1, n):
            value -= out[j - 1] * terms[n - j - 1]
        out.append(value)
    return out


def irreducible_count(k: int) -> int:
    """Number a_k of tensor-irreducible diagrams of order k."""
    if k < 1:
        raise ValueError("k must be positive")
    return irreducible_count_sequence(k)[-1]


def irreducible_count_sequence(n: int) -> list[int]:
    """a_1, ..., a_n: the Boolean transform of the even Bell numbers, since
    the algebra is free on the tensor-irreducible diagrams."""
    return boolean_transform(even_bell_sequence(n))


@dataclass(frozen=True)
class GfReport:
    """Outcome of checking  sum a_k x^k = 1 - 1/(1 + sum B_2k x^k)."""

    truncation_order: int
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def first_mismatch(self) -> int | None:
        for i, (x, y) in enumerate(zip(self.lhs, self.rhs)):
            if x != y:
                return i
        return None


def verify_gf_identity(n: int) -> GfReport:
    """Build both sides of the generating-function identity for the
    irreducible-count sequence to order n and compare coefficients."""
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    dims = (1, *even_bell_sequence(n))
    # inv = 1/(1 + sum B_2k x^k):  inv_m = -sum_{1<=i<=m} B_2i inv_{m-i}
    inv = [1]
    for m in range(1, n + 1):
        inv.append(-sum(dims[i] * inv[m - i] for i in range(1, m + 1)))
    rhs = (0, *(-c for c in inv[1:]))
    return GfReport(n, (0, *irreducible_count_sequence(n)), rhs)


# ---------------------------------------------------------------------------
# dimension sequences of the families with a closed form


def family_dimension(family: Family, k: int) -> int:
    """Exact dimension of the family's span in degree k."""
    if k < 1:
        raise ValueError("k must be positive")
    return family_dimension_sequence(family, k)[-1]


def family_dimension_sequence(family: Family, n: int) -> list[int]:
    """The family's dimensions in degrees 1..n, each sequence in one pass."""
    if family is Family.ALL:
        return even_bell_sequence(n)
    if family is Family.PLANAR:
        # Catalan numbers C_2k
        return [math.comb(4 * k, 2 * k) // (2 * k + 1) for k in range(1, n + 1)]
    if family is Family.PLANAR_PERFECT_MATCHING:
        # Temperley-Lieb: Catalan numbers C_k
        return [math.comb(2 * k, k) // (k + 1) for k in range(1, n + 1)]
    if family is Family.PLANAR_PARTIAL_PERMUTATION:
        # planar rook: central binomial coefficients
        return [math.comb(2 * k, k) for k in range(1, n + 1)]
    if family is Family.PLANAR_MATCHING:
        # Motzkin: M_2k, from (m + 2) M_m = (2m + 1) M_{m-1} + 3(m - 1) M_{m-2}
        motzkin = [1, 1]
        for m in range(2, 2 * n + 1):
            motzkin.append(((2 * m + 1) * motzkin[-1] + 3 * (m - 1) * motzkin[-2]) // (m + 2))
        return motzkin[2::2]
    if family is Family.MATCHING:
        # involution numbers I_2k, from I_m = I_{m-1} + (m - 1) I_{m-2}
        involutions = [1, 1]
        for m in range(2, 2 * n + 1):
            involutions.append(involutions[-1] + (m - 1) * involutions[-2])
        return involutions[2::2]
    if family is Family.PERFECT_MATCHING:
        return list(accumulate(range(1, 2 * n, 2), operator.mul))
    if family is Family.PARTIAL_PERMUTATION:
        # rook numbers R_k = 2k R_{k-1} - (k - 1)^2 R_{k-2}, R_0 = 1, R_1 = 2
        rooks = [1, 2]
        for k in range(2, n + 1):
            rooks.append(2 * k * rooks[-1] - (k - 1) ** 2 * rooks[-2])
        return rooks[1 : n + 1]
    if family is Family.PERMUTATION:
        return list(accumulate(range(1, n + 1), operator.mul))
    raise ValueError(f"no closed dimension formula for {family.value}")
