"""Exact integer sequence machinery: Bell numbers, the Boolean transform,
irreducible-generator counts, truncated power series, and the closed
dimension formulas of the diagram families.

Sequences are plain lists of Python ints read 1-based: ``terms[0]`` is the
value at n = 1.  Everything here is exact; no floats.

The Boolean transform b of a sequence a is defined by the generating
function identity  sum b_n x^n = 1 - 1/(1 + sum a_n x^n),  equivalently by
the recursion  b_n = a_n - sum_{alpha |= n, alpha != (n)} b_a1 ... b_al
over proper compositions.  Both are implemented (the convolution recurrence
b_n = a_n - sum_{j<n} b_j a_{n-j} is the production path) and cross-checked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .families import Family

COMPOSITION_ITERATION_LIMIT = 20


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
    """All integer compositions of n, as bar masks over the n-1 gaps."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > COMPOSITION_ITERATION_LIMIT:
        raise ValueError(f"direct composition iteration capped at n = {COMPOSITION_ITERATION_LIMIT}")
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


def boolean_transform_by_compositions(terms: Sequence[int]) -> list[int]:
    """The same transform via the proper-composition recursion (test route)."""
    out: list[int] = []
    for n in range(1, len(terms) + 1):
        value = terms[n - 1]
        for alpha in compositions(n):
            if alpha == (n,):
                continue
            prod = 1
            for part in alpha:
                prod *= out[part - 1]
            value -= prod
        out.append(value)
    return out


def boolean_transform_by_series(terms: Sequence[int]) -> list[int]:
    """The same transform straight from the generating-function definition."""
    n = len(terms)
    a = TruncatedSeries((1, *terms), n)
    b = TruncatedSeries.one(n) - a.reciprocal()
    return list(b.coefficients[1:])


def inverse_boolean_transform(terms: Sequence[int]) -> list[int]:
    """Forward composition sum a_n = sum_{alpha |= n} b_a1 ... b_al."""
    out: list[int] = []
    for n in range(1, len(terms) + 1):
        value = 0
        for alpha in compositions(n):
            prod = 1
            for part in alpha:
                prod *= terms[part - 1]
            value += prod
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


class TruncatedSeries:
    """Formal power series over the integers, exact modulo x^(N+1)."""

    __slots__ = ("coefficients", "truncation_order")

    def __init__(self, coefficients: Sequence[int], truncation_order: int):
        if truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        coeffs = list(coefficients)[: truncation_order + 1]
        coeffs += [0] * (truncation_order + 1 - len(coeffs))
        self.coefficients = tuple(coeffs)
        self.truncation_order = truncation_order

    @classmethod
    def one(cls, truncation_order: int) -> "TruncatedSeries":
        return cls((1,), truncation_order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.truncation_order == other.truncation_order
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.coefficients, self.truncation_order))

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)}, {self.truncation_order})"

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries((other,), self.truncation_order)
        if other.truncation_order != self.truncation_order:
            raise ValueError("truncation order mismatch")
        return other

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        return TruncatedSeries(
            [x + y for x, y in zip(self.coefficients, other.coefficients)],
            self.truncation_order,
        )

    def __sub__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        return TruncatedSeries(
            [x - y for x, y in zip(self.coefficients, other.coefficients)],
            self.truncation_order,
        )

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        n = self.truncation_order
        out = [0] * (n + 1)
        for i, x in enumerate(self.coefficients):
            if x == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += x * other.coefficients[j]
        return TruncatedSeries(out, n)

    def reciprocal(self) -> "TruncatedSeries":
        """Exact inverse; requires constant term 1 or -1."""
        c0 = self.coefficients[0]
        if c0 not in (1, -1):
            raise ValueError("reciprocal needs unit constant term")
        n = self.truncation_order
        out = [c0] + [0] * n
        for m in range(1, n + 1):
            acc = 0
            for i in range(1, m + 1):
                acc += self.coefficients[i] * out[m - i]
            out[m] = -c0 * acc
        return TruncatedSeries(out, n)


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
    lhs = TruncatedSeries((0, *irreducible_count_sequence(n)), n)
    dims = TruncatedSeries((1, *even_bell_sequence(n)), n)
    rhs = TruncatedSeries.one(n) - dims.reciprocal()
    return GfReport(n, lhs.coefficients, rhs.coefficients)


# ---------------------------------------------------------------------------
# dimension sequences of the families with a closed form


def double_factorial_odd(i: int) -> int:
    """(2i - 1)!! with the empty product (-1)!! = 1."""
    out = 1
    for j in range(1, 2 * i, 2):
        out *= j
    return out


def family_dimension(family: Family, k: int) -> int:
    """Exact dimension of the family's span in degree k."""
    if k < 1:
        raise ValueError("k must be positive")
    return family_dimension_sequence(family, k)[-1]


def family_dimension_sequence(family: Family, n: int) -> list[int]:
    """The family's dimensions in degrees 1..n, each sequence in one pass.

    Raises for the composite planar families, which have no formula at this
    layer and are counted by enumeration instead.
    """
    if family is Family.ALL:
        return even_bell_sequence(n)
    if family is Family.PLANAR:
        # Catalan numbers C_2k
        return [math.comb(4 * k, 2 * k) // (2 * k + 1) for k in range(1, n + 1)]
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
