"""Machine verification that diagram families span Hopf subalgebras.

``closure_report`` certifies a family F up to degree D from one
``enumerate_family`` walk per degree, computing no coproduct or antipode:

* (a) factors: every tensor factor of a member is a member;
* (b) products: with n_k members and g_k tensor-irreducible members of
  order k, ``boolean_transform([n_1..n_k]) == [g_1..g_k]``.  By (a) and
  unique factorisation the members of order k inject into the words in
  F's generators, which number n_k exactly when (b) holds, so every tensor
  product of members is a member;
* (c) intervals: the piece of a generator between two of its bullet cuts,
  or a cut and an end, is a member.  Prefix and suffix pieces are its
  coproduct legs; interior pieces appear only in its antipode.

Delta of a word is the product of its generators' splits and S of a word
the regroupings of its reversed word, so every coproduct leg and antipode
word is a tensor product of intervals, a member by (a)-(c).  The flags of
degree k cover every degree up to k; the primitive members are the
tensor-irreducible ones with no bullet cut.

``family_generator_counts`` counts tensor-irreducible members per order,
which must equal the Boolean transform of the dimension sequence, with
``count_family``: per prefix of the member walk, with no member built.
``m_distribution`` bins the bullet statistic over ``enumerate_family``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .diagrams import (
    CapExceeded,
    PartitionDiagram,
    bullet_cuts,
    is_tensor_irreducible,
    m_statistic,
    split,
    tensor,
    tensor_cuts,
)
from .families import Family, count_family, enumerate_family, family_member
from .sequences import boolean_transform

CLOSURE_CAP = 5
GENERATOR_COUNT_CAP = 6


@dataclass(frozen=True)
class DegreeChecks:
    tensor_closed: bool
    delta_closed: bool
    antipode_closed: bool
    primitive_count: int

    @property
    def passed(self) -> bool:
        return self.tensor_closed and self.delta_closed and self.antipode_closed


@dataclass(frozen=True)
class ClosureReport:
    family: Family
    max_degree: int
    checks: dict[int, DegreeChecks]
    counterexample: tuple[PartitionDiagram, str] | None

    @property
    def all_passed(self) -> bool:
        return self.counterexample is None


def closure_report(family: Family, max_degree: int) -> ClosureReport:
    """Certify (a)-(c) up to ``max_degree``.  A counterexample names a member
    missing a factor, a missing product, or a generator missing a piece."""
    if max_degree > CLOSURE_CAP:
        raise CapExceeded(f"closure check for {family.value} capped at degree {CLOSURE_CAP}")
    checks: dict[int, DegreeChecks] = {}
    counterexample: tuple[PartitionDiagram, str] | None = None
    members, generators = [], []  # n_1..n_k and g_1..g_k
    tensor_ok = delta_ok = antipode_ok = True
    for k in range(1, max_degree + 1):
        n = g = primitive = 0
        for d in enumerate_family(k, family):
            n += 1
            cuts = tensor_cuts(d)
            if cuts:
                if tensor_ok and not all(family_member(f, family) for f in split(d, cuts)):
                    tensor_ok = delta_ok = antipode_ok = False
                    counterexample = counterexample or (d, "tensor")
                continue
            g += 1
            bounds = [0, *bullet_cuts(d), k]
            primitive += len(bounds) == 2
            for lo, hi in combinations(bounds, 2):
                outer = lo == 0 or hi == k
                if (lo, hi) == (0, k) or not (delta_ok if outer else antipode_ok):
                    continue
                if not family_member(split(d, [lo, hi])[1], family):
                    antipode_ok = False
                    delta_ok = delta_ok and not outer
                    counterexample = counterexample or (d, "coproduct" if outer else "antipode")
        members.append(n)
        generators.append(g)
        if tensor_ok and boolean_transform(members) != generators:
            tensor_ok = delta_ok = antipode_ok = False
            counterexample = counterexample or (_missing_product(family, k), "tensor")
        checks[k] = DegreeChecks(tensor_ok, delta_ok, antipode_ok, primitive)
    return ClosureReport(family, max_degree, checks, counterexample)


def _missing_product(family: Family, k: int) -> PartitionDiagram:
    # after a count mismatch at order k with every lower order closed, some
    # member x times a generator y of order k - order(x) is not a member
    return next(
        w
        for j in range(1, k)
        for x in enumerate_family(j, family)
        for y in enumerate_family(k - j, family)
        if is_tensor_irreducible(y) and not family_member(w := tensor(x, y), family)
    )


def family_generator_counts(family: Family, max_k: int) -> list[int]:
    """Number of tensor-irreducible members per order, k = 1..max_k."""
    if max_k > GENERATOR_COUNT_CAP:
        raise CapExceeded(
            f"generator counts for {family.value} capped at order "
            f"{GENERATOR_COUNT_CAP}"
        )
    return [
        count_family(k, family, max_order=GENERATOR_COUNT_CAP, irreducible=True)
        for k in range(1, max_k + 1)
    ]


def m_distribution(k: int, family: Family, max_order: int | None = None) -> dict[int, int]:
    """Histogram of the bullet statistic over family members of order k,
    refused past ``max_order``, by default the enumeration cap."""
    histogram: dict[int, int] = {}
    for d in enumerate_family(k, family, max_order=max_order):
        value = m_statistic(d)
        histogram[value] = histogram.get(value, 0) + 1
    return dict(sorted(histogram.items()))
