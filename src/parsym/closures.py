"""Machine verification that diagram families span Hopf subalgebras.

For a family F and degree bound D, ``closure_report`` checks for every
member d of order <= D that

* every tensor-irreducible factor of d stays in F (product closure, via
  the factor-closure form);
* both legs of every coproduct term of H_d stay in F;
* every basis word in the antipode of H_d stays in F;

and counts the primitive members per degree (the tensor-irreducible
members whose bullet statistic is 1).

``family_generator_counts`` counts tensor-irreducible members per order,
the quantity that must match the Boolean transform of the family's
dimension sequence.  These and ``m_distribution`` walk the members with
``families.enumerate_family``, which skips non-members without building
them, so small families stay cheap where full enumeration is large.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PARSYM
from .diagrams import (
    CapExceeded,
    PartitionDiagram,
    is_tensor_irreducible,
    m_statistic,
    tensor_factorize,
)
from .families import Family, enumerate_family, family_member

CLOSURE_CAP = 4
CLOSURE_CAP_LARGE_FAMILIES = 3
GENERATOR_COUNT_CAP = 6
M_DISTRIBUTION_CAP = 4

_LARGE = (Family.ALL, Family.PLANAR)


def is_primitive_basis_diagram(d: PartitionDiagram) -> bool:
    """H_d is primitive iff d is tensor-irreducible with bullet statistic 1.
    The irreducibility test reads the cached factorisation, which the
    closure checks reuse."""
    return (
        not d.is_empty() and len(tensor_factorize(d)) == 1 and m_statistic(d) == 1
    )


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
    cap = CLOSURE_CAP_LARGE_FAMILIES if family in _LARGE else CLOSURE_CAP
    if max_degree > cap:
        raise CapExceeded(
            f"closure check for {family.value} capped at degree {cap}"
        )
    checks: dict[int, DegreeChecks] = {}
    counterexample: tuple[PartitionDiagram, str] | None = None
    for degree in range(1, max_degree + 1):
        tensor_ok = delta_ok = antipode_ok = True
        primitive = 0
        for d in enumerate_family(degree, family):
            if is_primitive_basis_diagram(d):
                primitive += 1
            if tensor_ok and not all(
                family_member(f, family) for f in tensor_factorize(d)
            ):
                tensor_ok = False
                counterexample = counterexample or (d, "tensor")
            if delta_ok and not all(
                family_member(left, family) and family_member(right, family)
                for left, right in PARSYM.coproduct_word(d).terms
            ):
                delta_ok = False
                counterexample = counterexample or (d, "coproduct")
            if antipode_ok and not all(
                family_member(word, family) for word in PARSYM.antipode_word(d).terms
            ):
                antipode_ok = False
                counterexample = counterexample or (d, "antipode")
        checks[degree] = DegreeChecks(tensor_ok, delta_ok, antipode_ok, primitive)
    return ClosureReport(family, max_degree, checks, counterexample)


def family_generator_counts(family: Family, max_k: int) -> list[int]:
    """Number of tensor-irreducible members per order, k = 1..max_k."""
    if max_k > GENERATOR_COUNT_CAP:
        raise CapExceeded(
            f"generator counts for {family.value} capped at order "
            f"{GENERATOR_COUNT_CAP}"
        )
    return [
        sum(
            1
            for d in enumerate_family(k, family, max_order=GENERATOR_COUNT_CAP)
            if is_tensor_irreducible(d)
        )
        for k in range(1, max_k + 1)
    ]


def m_distribution(k: int, family: Family, max_order: int = M_DISTRIBUTION_CAP) -> dict[int, int]:
    """Histogram of the bullet statistic over family members of order k."""
    histogram: dict[int, int] = {}
    for d in enumerate_family(k, family, max_order=max_order):
        value = m_statistic(d)
        histogram[value] = histogram.get(value, 0) + 1
    return dict(sorted(histogram.items()))
