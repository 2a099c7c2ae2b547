"""Test oracle for the diagram families, independent of the growth rules.

Membership is decided by predicates over the ``blocks`` view, the
dimensions by the closed-form sums, the generator counts of the full
family by a transfer count over open blocks, and its m histogram by powers
of their generating function.  The library defines each family by its
``GrowthRule``, and its counts by a move table; the tests compare
``enumerate_family``, ``count_family``, ``count_family_by_m`` and
``family_dimension_sequence`` against these.

It also holds routes the library does not need: ``family_member``, which
replays a diagram's labels through the family's rule node by node (the
library's one membership route is the walk), ``count_diagrams``, which
counts the members on the rule's walk stopped one node early (the library
counts them column by column over the open blocks), the Boolean transform
by the proper-composition recursion and by its generating function (the
library uses one convolution recurrence), its inverse, the odd double
factorials, the primitive basis diagrams by their bullet statistic, and
the closure certificate that tests every tensor factor and every piece
between two bullet cuts (it follows the family's rule, so it also serves
fake rules).
"""

import math
from itertools import combinations
from typing import Sequence

from parsym.closures import ClosureReport, DegreeChecks
from parsym.diagrams import (
    GrowthRule,
    PartitionDiagram,
    _always,
    _check_order,
    _slots,
    _uncrossed,
    _walk,
    bullet_cuts,
    is_tensor_irreducible,
    m_statistic,
    split,
    tensor,
    tensor_cuts,
)
from parsym.families import _RULES, Family, enumerate_family
from parsym.sequences import bell, boolean_transform, compositions


def double_factorial_odd(i: int) -> int:
    """(2i - 1)!! with the empty product (-1)!! = 1."""
    out = 1
    for j in range(1, 2 * i, 2):
        out *= j
    return out


def boolean_transform_by_compositions(terms: Sequence[int]) -> list[int]:
    """b_n = a_n - sum over the proper compositions alpha of n of b_a1 ... b_al."""
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
    """The coefficients of 1 - 1/(1 + sum a_n x^n) at x^1, ..., x^n."""
    series = (1, *terms)
    reciprocal = [1]
    for m in range(1, len(series)):
        reciprocal.append(-sum(series[i] * reciprocal[m - i] for i in range(1, m + 1)))
    return [-c for c in reciprocal[1:]]


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


def is_primitive_basis_diagram(d: PartitionDiagram) -> bool:
    """H_d is primitive iff d is tensor-irreducible with bullet statistic 1."""
    return not d.is_empty() and not tensor_cuts(d) and m_statistic(d) == 1


def _is_permutation(d: PartitionDiagram) -> bool:
    return all(
        len(block) == 2 and block[0] > 0 and block[1] < 0 for block in d.blocks
    )


def _boundary_position(v: int, k: int) -> int:
    # walk the rectangle boundary: 1, ..., k along the top, then k', ..., 1'
    return v if v > 0 else 2 * k + 1 + v


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...], k: int) -> bool:
    merged = sorted(
        [(_boundary_position(v, k), 0) for v in a]
        + [(_boundary_position(v, k), 1) for v in b]
    )
    switches = sum(
        1 for i in range(1, len(merged)) if merged[i][1] != merged[i - 1][1]
    )
    return switches >= 3


def _is_planar(d: PartitionDiagram) -> bool:
    blocks = d.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if _blocks_cross(blocks[i], blocks[j], d.order):
                return False
    return True


def _is_matching(d: PartitionDiagram) -> bool:
    return all(len(block) <= 2 for block in d.blocks)


def _is_perfect_matching(d: PartitionDiagram) -> bool:
    return all(len(block) == 2 for block in d.blocks)


def _is_partial_permutation(d: PartitionDiagram) -> bool:
    return all(
        len(block) == 1 or (block[0] > 0 and block[1] < 0) for block in d.blocks
    ) and _is_matching(d)


_PREDICATES = {
    Family.ALL: lambda d: True,
    Family.PERMUTATION: _is_permutation,
    Family.PLANAR: _is_planar,
    Family.MATCHING: _is_matching,
    Family.PERFECT_MATCHING: _is_perfect_matching,
    Family.PARTIAL_PERMUTATION: _is_partial_permutation,
    Family.PLANAR_PERFECT_MATCHING: lambda d: _is_perfect_matching(d)
    and _is_planar(d),
    Family.PLANAR_MATCHING: lambda d: _is_matching(d) and _is_planar(d),
    Family.PLANAR_PARTIAL_PERMUTATION: lambda d: _is_partial_permutation(d)
    and _is_planar(d),
}


def oracle_member(d: PartitionDiagram, family: Family) -> bool:
    return _PREDICATES[family](d)


def family_member(d: PartitionDiagram, family: Family) -> bool:
    """True iff d's labels, replayed in slot order through the family's
    rule, admit every node as a join or, where its label is new, as an open.
    The walk of ``enumerate_family`` visits exactly these paths."""
    rule = _RULES.get(family)
    if rule is None:
        return True
    joins, opens, noncrossing = rule
    blocks: list[list[int]] = []
    seen: tuple[int, ...] = ()
    k = d.order
    left = len(d.labels)
    for i, (v, x) in enumerate(zip(_slots(k)[0], d.labels)):
        left -= 1
        if x < len(blocks):
            if not (joins(blocks, blocks[x], v) and (not noncrossing or x in seen)):
                return False
            blocks[x].append(v)
        elif opens(blocks, v, left):
            blocks.append([v])
        else:
            return False
        if noncrossing:
            seen = _uncrossed(seen, blocks, x, i + 1 == k)
    return True


def count_diagrams(
    k: int, max_order: int | None = None, rule: GrowthRule | None = None, irreducible: bool = False
) -> int:
    """The number of diagrams ``enumerate_diagrams`` yields, or with
    ``irreducible`` of the tensor-irreducible ones, under the same cap.
    No diagram is built: the walk stops before the last node k' and counts
    its admitted choices on each prefix.  With ``irreducible`` the walk
    keeps its spans, and the prefix's first uncrossed line ``cut`` (k if
    none) settles each choice: k' alone crosses no line, so an open leaves
    no tensor cut iff cut is k, and a join to block y iff y lies at or left
    of cut, since it then crosses every line from y's first column on."""
    _check_order(k, max_order)
    if k == 0:
        return int(not irreducible)
    joins, opens, _ = rule = rule or GrowthRule()
    free = joins is _always  # k' may join every block it can reach
    count = 0
    for _, blocks, seen, span in _walk(_slots(k)[0], rule, 2 * k - 1, irreducible):
        if irreducible:
            first, _, cov = span
            cut = cov.index(0, 1)
            if cut < k:
                left = [x for x in (range(len(blocks)) if seen is None else seen) if first[x] <= cut]
                count += len(left) if free else sum(joins(blocks, blocks[x], -k) for x in left)
                continue
        choices = blocks if seen is None else [blocks[x] for x in seen]
        if free:
            count += len(choices) + opens(blocks, -k, 0)
        else:
            count += sum(joins(blocks, b, -k) for b in choices) + opens(blocks, -k, 0)
    return count


def closed_form_dimension(family: Family, k: int) -> int:
    """The family's dimension in degree k >= 1 as a closed-form sum."""
    if family is Family.ALL:
        return bell(2 * k)
    if family is Family.PLANAR:
        value, rem = divmod(math.comb(4 * k, 2 * k), 2 * k + 1)
        assert rem == 0
        return value
    if family is Family.MATCHING:
        return sum(
            math.comb(2 * k, 2 * i) * double_factorial_odd(i) for i in range(k + 1)
        )
    if family is Family.PERFECT_MATCHING:
        return double_factorial_odd(k)
    if family is Family.PARTIAL_PERMUTATION:
        return sum(math.comb(k, i) ** 2 * math.factorial(i) for i in range(k + 1))
    if family is Family.PERMUTATION:
        return math.factorial(k)
    if family is Family.PLANAR_PERFECT_MATCHING:
        return math.comb(2 * k, k) - math.comb(2 * k, k + 1)
    if family is Family.PLANAR_PARTIAL_PERMUTATION:
        return sum(math.comb(k, i) ** 2 for i in range(k + 1))
    if family is Family.PLANAR_MATCHING:
        # Motzkin M_2k: the matchings of 2k points on a line with 2i paired
        return sum(
            math.comb(2 * k, 2 * i) * (math.comb(2 * i, i) - math.comb(2 * i, i + 1))
            for i in range(k + 1)
        )
    raise ValueError(f"no closed dimension formula for {family.value}")


def irreducible_counts_by_transfer(n: int) -> list[int]:
    """Oracle for a_1..a_n, the tensor-irreducible diagrams of each order,
    built from no diagram and no Boolean transform.  The nodes arrive in the
    order 1, 1', 2, 2', ...; the state is the number of open blocks, those
    a later node still joins.  A node forms a lone block or joins an open
    block that stays open (1 + s ways, s -> s), opens a block (s -> s + 1)
    or closes one (s ways, s -> s - 1).  A line between columns is crossed
    exactly when a block is open there, so state 0 after a column ends the
    diagrams of that order and is dropped before the walk goes on."""
    counts = []
    ways = [1]  # ways[s]: node sequences so far that leave s blocks open
    for _ in range(n):
        for _node in "top", "bottom":
            step = [0] * (len(ways) + 1)
            for s, w in enumerate(ways):
                step[s] += (1 + s) * w
                step[s + 1] += w
                if s:
                    step[s - 1] += s * w
            ways = step
        counts.append(ways[0])
        ways[0] = 0
    return counts


def m_counts_by_series(k: int) -> dict[int, int]:
    """Oracle for the m histogram of the diagrams of order k >= 1, built from
    no diagram.  Bullet factorisation is unique, and the bullet-irreducible
    diagrams of order n number a_n, as the tensor-irreducible ones do, so
    the diagrams with m = j number [x^k] A(x)^j, A(x) = sum a_n x^n, with
    a_n from ``irreducible_counts_by_transfer``."""
    a = [0, *irreducible_counts_by_transfer(k)]
    power = [1] + [0] * k  # A(x)^j truncated past x^k, from j = 0
    counts = {}
    for j in range(1, k + 1):
        power = [sum(power[i] * a[n - i] for i in range(n)) for n in range(k + 1)]
        counts[j] = power[k]
    return counts


def all_pieces_closure_oracle(family: Family, max_degree: int) -> ClosureReport:
    """Test oracle for ``closures.closure_report``: the same walk, but (a)
    tests every tensor factor of a member and (c) every piece of a
    generator between two of its bullet cuts, or a cut and an end.  Outer
    pieces are coproduct legs; interior ones, which appear only in the
    antipode, set ``antipode_closed`` on their own."""
    checks: dict[int, DegreeChecks] = {}
    counterexample: tuple[PartitionDiagram, str] | None = None
    members, generators = [], []
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
            missing = next(
                w
                for j in range(1, k)
                for x in enumerate_family(j, family)
                for y in enumerate_family(k - j, family)
                if is_tensor_irreducible(y) and not family_member(w := tensor(x, y), family)
            )
            counterexample = counterexample or (missing, "tensor")
        checks[k] = DegreeChecks(tensor_ok, delta_ok, antipode_ok, primitive)
    return ClosureReport(family, max_degree, checks, counterexample)
