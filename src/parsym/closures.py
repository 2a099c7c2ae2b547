"""Machine verification that diagram families span Hopf subalgebras.

``closure_report`` certifies a family F up to degree D from one
``enumerate_family`` walk per degree, computing no coproduct or antipode:

* (a) factors: every tensor factor of a member is a member;
* (b) products: with n_k members and g_k tensor-irreducible members of
  order k, ``boolean_transform([n_1..n_k]) == [g_1..g_k]``.  By (a) and
  unique factorisation the members of order k inject into the words in
  F's generators, which number n_k exactly when (b) holds, so every tensor
  product of members is a member;
* (c) legs: a generator's longest prefix and suffix, before its last bullet
  cut and after its first, are members.  They are generators of lower
  order with its cuts, so by induction so is every piece between two cuts.

(a) tests a member's first tensor factor and the rest, a lower-order member
whose factors were tested before.  Every factor and leg has a lower order,
so it is looked up among the members the walk of that order yielded: the
walk is the family's definition, and no rule is replayed.  Delta of a word
is the product of its generators' splits and S of a word the regroupings
of its reversed word, so every coproduct leg and antipode word is a tensor
product of such pieces.  A graded connected sub-bialgebra is closed under
S (Takeuchi), so ``antipode_closed`` repeats ``delta_closed`` for the JSON
report.  The flags of degree k cover every degree up to k; the primitive
members are the tensor-irreducible ones with no bullet cut.

``family_generator_counts`` counts tensor-irreducible members per order,
which must equal the Boolean transform of the dimension sequence, from one
pass of the family's transfer moves (``family_counts``), and
``m_distribution`` bins the bullet statistic with ``count_family_by_m``,
a second pass of those moves with the bullet cuts in the state.  Neither
walks a member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    EMPTY_DIAGRAM,
    CapExceeded,
    PartitionDiagram,
    column_cuts,
    is_tensor_irreducible,
    split,
    tensor,
)
from .families import Family, count_family_by_m, enumerate_family, family_counts
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
    missing a factor, a missing product, or a generator missing a leg."""
    if max_degree > CLOSURE_CAP:
        raise CapExceeded(f"closure check for {family.value} capped at degree {CLOSURE_CAP}")
    checks: dict[int, DegreeChecks] = {}
    counterexample: tuple[PartitionDiagram, str] | None = None
    members = [{EMPTY_DIAGRAM: None}]  # members[j]: the order-j members in walk order
    sizes, generators = [], []  # n_1..n_k and g_1..g_k
    tensor_ok = delta_ok = True
    for k in range(1, max_degree + 1):
        walk = enumerate_family(k, family)
        if k < max_degree:  # the top order's members are not kept
            members.append(walk := dict.fromkeys(walk))
        n = g = primitive = 0
        for d in walk:
            n += 1
            at, cuts = column_cuts(d)  # tensor cuts, bullet cuts
            if at:
                if tensor_ok and not all(f in members[f.order] for f in split(d, at[:1])):
                    tensor_ok = delta_ok = False
                    counterexample = counterexample or (d, "tensor")
                continue
            g += 1
            primitive += not cuts
            legs = (split(d, cuts[-1:])[0], split(d, cuts[:1])[1]) if cuts else ()
            if delta_ok and not all(leg in members[leg.order] for leg in legs):
                delta_ok = False
                counterexample = counterexample or (d, "coproduct")
        sizes.append(n)
        generators.append(g)
        if tensor_ok and boolean_transform(sizes) != generators:
            tensor_ok = delta_ok = False
            counterexample = counterexample or (_missing_product(family, members, k), "tensor")
        checks[k] = DegreeChecks(tensor_ok, delta_ok, delta_ok, primitive)
    return ClosureReport(family, max_degree, checks, counterexample)


def _missing_product(
    family: Family, members: list[dict[PartitionDiagram, None]], k: int
) -> PartitionDiagram:
    # after a count mismatch at order k with every lower order closed, some
    # member x times a generator y of order k - order(x) is not a member;
    # the top order's members are walked again only when they were not kept
    top = members[k] if k < len(members) else set(enumerate_family(k, family))
    return next(
        w
        for j in range(1, k)
        for x in members[j]
        for y in members[k - j]
        if is_tensor_irreducible(y) and (w := tensor(x, y)) not in top
    )


def family_generator_counts(family: Family, max_k: int) -> list[int]:
    """Number of tensor-irreducible members per order, k = 1..max_k, from
    one column-by-column transfer count with no member built."""
    if max_k > GENERATOR_COUNT_CAP:
        raise CapExceeded(
            f"generator counts for {family.value} capped at order "
            f"{GENERATOR_COUNT_CAP}"
        )
    return family_counts(max_k, family, irreducible=True)[1:]


def m_distribution(k: int, family: Family, max_order: int | None = None) -> dict[int, int]:
    """Histogram of the bullet statistic over family members of order k,
    refused past ``max_order``, by default the enumeration cap."""
    return count_family_by_m(k, family, max_order)
