"""Deterministic command-line surface.

Same inputs always produce byte-identical output.  Exit codes: 0 for
success or a passing verification, 1 for a failing verification, 2 for
usage errors (including explicit cap refusals).  Each command parses its
arguments, calls the library and prints; ``op`` and ``verify`` dispatch
through the tables ``OPS`` and ``VERIFY``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

from . import algebra, closures, nsym, sequences
from .diagrams import (
    PartitionDiagram,
    bullet,
    bullet_decompose,
    from_json_obj,
    is_bullet_irreducible,
    is_tensor_irreducible,
    m_statistic,
    parse,
    propagation_number,
    render,
    tensor,
    tensor_factorize,
    to_json_obj,
    vertical_compose,
)
from .families import Family, count_family, count_family_by_m, enumerate_family

# Sequences cost O(terms^2) big-integer products, each boolean(...) one more
# transform; the slowest name at both caps takes 3.5 s on a 2-vCPU host.
SEQUENCE_TERMS_CAP = 400
SEQUENCE_NESTING_CAP = 8
# op phi builds a diagram of order sum(alpha); at the cap it takes under 1 s
# and 80 MB on a 2-vCPU host, whatever the parts
PHI_ORDER_CAP = 100_000

CLOSURE_FAMILIES = tuple(f for f in Family if f is not Family.ALL)
# the default set of verify counts; the planar composites have formulas too
# (Catalan, central binomial and even Motzkin numbers) and answer under
# --family
FORMULA_FAMILIES = tuple(f for f in CLOSURE_FAMILIES if "planar-" not in f.value)


def _read_text_argument(arg: str) -> str:
    if arg.startswith("@"):
        return Path(arg[1:]).read_text(encoding="utf-8")
    return arg


def _read_diagram(arg: str) -> PartitionDiagram:
    text = _read_text_argument(arg).strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("JSON diagram nested too deeply") from None
        return from_json_obj(obj)
    return parse(text)


def _emit(lines: Iterable[str]) -> None:
    for line in lines:
        print(line)


def _diagram_out(d: PartitionDiagram, as_json: bool) -> None:
    print(json.dumps(to_json_obj(d)) if as_json else render(d))


def _diagram_list_out(ds: Iterable[PartitionDiagram], as_json: bool) -> None:
    # streamed as ds yields; the JSON bytes are those of json.dumps on the list
    if as_json:
        print("[", end="")
        for i, d in enumerate(ds):
            print(", " * (i > 0) + json.dumps(to_json_obj(d)), end="")
        print("]")
    else:
        _emit(map(render, ds))


def _value_out(value, as_json: bool) -> None:
    print(json.dumps(value) if as_json else value)


def _vcompose_out(result: tuple[PartitionDiagram, int], as_json: bool) -> None:
    d, removed = result
    if as_json:
        print(json.dumps({"diagram": to_json_obj(d), "removed": removed}))
    else:
        print(f"{render(d)} removed={removed}")


def _terms_out(rows: Iterable[tuple], as_json: bool) -> None:
    """Print rows (sort key ..., text, coefficient) in sorted order: one JSON
    map text -> coefficient string, or one ``coefficient text`` line each."""
    rows = sorted(rows)
    if as_json:
        print(json.dumps({row[-2]: str(row[-1]) for row in rows}))
    else:
        _emit(f"{row[-1]} {row[-2]}" for row in rows)


def _words_out(el: algebra.ParSymElement, as_json: bool) -> None:
    # rows sort by degree, then canonical text, which is also the row's text
    _terms_out(((d.order, render(d), c) for d, c in el.terms.items()), as_json)


def _tensors_out(el: algebra.DiagramTensor, as_json: bool) -> None:
    sep = "⦿" if as_json else "|x|"
    rows = []
    for (left, right), c in el.terms.items():
        lt, rt = render(left), render(right)
        rows.append((left.order, lt, right.order, rt, f"{lt}{sep}{rt}", c))
    _terms_out(rows, as_json)


def _compositions_out(el, as_json: bool, prefix: str = "") -> None:
    # NSym words, or QSym monomials under prefix "M", by degree, then parts
    rows = ((sum(a), a, prefix + nsym.render_composition(a), c) for a, c in el.terms.items())
    _terms_out(rows, as_json)


def _phi(text: str) -> algebra.ParSymElement:
    alpha = nsym.parse_composition(text.strip())
    if sum(alpha) > PHI_ORDER_CAP:
        raise ValueError(f"composition total {sum(alpha)} exceeds the cap {PHI_ORDER_CAP}")
    return nsym.phi(nsym.nsym_h(alpha))


# verb -> (arity, map on the arguments, printer); every argument is a
# diagram except phi's composition.  Coproduct, antipode and e-expand refuse
# past the kernel's budget of 2^linear.REGROUPING_CUT_CAP terms.
OPS = {
    "parse": (1, lambda d: d, _diagram_out),
    "render": (1, lambda d: d, _diagram_out),
    "tensor": (2, tensor, _diagram_out),
    "bullet": (2, bullet, _diagram_out),
    "vcompose": (2, vertical_compose, _vcompose_out),
    "factorize": (1, tensor_factorize, _diagram_list_out),
    "bullet-decompose": (1, bullet_decompose, _diagram_list_out),
    "m": (1, m_statistic, _value_out),
    "propagation": (1, propagation_number, _value_out),
    "coproduct": (1, lambda d: algebra.coproduct(algebra.h(d)), _tensors_out),
    "antipode": (1, lambda d: algebra.antipode(algebra.h(d)), _words_out),
    "e-expand": (1, algebra.e_basis_expand, _words_out),
    "chi": (1, lambda d: nsym.chi(algebra.h(d)), _compositions_out),
    "phi": (1, _phi, _words_out),
    "zeta": (1, lambda d: algebra.character_zeta(algebra.h(d)), _value_out),
    "qsym-image": (1, lambda d: nsym.qsym_image(algebra.h(d)), lambda el, j: _compositions_out(el, j, "M")),
}


def _require_positive(value: int, flag: str, cap: int | None = None) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap {cap}")


def _run_op(ns) -> int:
    arity, fn, out = OPS[ns.verb]
    if len(ns.args) != arity:
        raise ValueError(f"op {ns.verb} expects {arity} argument(s), got {len(ns.args)}")
    if ns.json and ns.verb == "render":  # op parse --json gives the JSON form
        raise ValueError("op render does not take --json")
    read = _read_text_argument if ns.verb == "phi" else _read_diagram
    out(fn(*map(read, ns.args)), ns.json)
    return 0


def _family(ns) -> Family:
    return Family.from_name(ns.family) if ns.family else Family.ALL


def _max_order(ns) -> int | None:
    if ns.max_order is not None and ns.max_order < 0:
        raise ValueError(f"--max-order must be nonnegative, got {ns.max_order}")
    return ns.max_order


def _run_enumerate(ns) -> int:
    # not a generator, so the cap check runs at the call, before any output
    members = enumerate_family(ns.order, _family(ns), max_order=_max_order(ns))
    if ns.irreducible:
        members = filter(is_tensor_irreducible, members)
    if ns.bullet_irreducible:
        members = filter(is_bullet_irreducible, members)
    _diagram_list_out(members, ns.json)
    return 0


def _run_count(ns) -> int:
    # counted column by column with no diagram built; the bullet-irreducible
    # diagrams are those with m = 1
    family, max_order = _family(ns), _max_order(ns)
    if ns.bullet_irreducible:
        count = count_family_by_m(ns.order, family, max_order, ns.irreducible).get(1, 0)
    else:
        count = count_family(ns.order, family, max_order, ns.irreducible)
    _value_out(count, ns.json)
    return 0


SEQUENCES = {
    "a": sequences.irreducible_count_sequence,
    "bell": sequences.bell_sequence,
    "bell-even": sequences.even_bell_sequence,
}


def _resolve_sequence(name: str, family_name: str | None, terms: int) -> list[int]:
    name = name.strip()
    if name == "dim":
        if not family_name:
            raise ValueError("seq dim requires --family")
        name, family_name = f"dim({family_name})", None
    elif name == "boolean":
        name = f"boolean(dim({family_name}))" if family_name else "boolean(bell-even)"
        family_name = None
    if name.startswith("boolean(") and name.endswith(")"):
        return sequences.boolean_transform(_resolve_sequence(name[8:-1], family_name, terms))
    if family_name:
        raise ValueError(f"seq {name} does not take --family")
    if name.startswith("dim(") and name.endswith(")"):
        return sequences.family_dimension_sequence(Family.from_name(name[4:-1]), terms)
    if name in SEQUENCES:
        return SEQUENCES[name](terms)
    raise ValueError(f"unknown sequence {name!r}")


def _run_seq(ns) -> int:
    _require_positive(ns.terms, "--terms", SEQUENCE_TERMS_CAP)
    if ns.name.count("boolean(") > SEQUENCE_NESTING_CAP:
        raise ValueError(f"boolean(...) nested past the cap {SEQUENCE_NESTING_CAP}")
    values = [str(v) for v in _resolve_sequence(ns.name, ns.family, ns.terms)]
    if ns.json:
        print(json.dumps(values))
    else:
        _emit(values)
    return 0


# Each check takes its size and its families (None where --family is not
# read) and returns (passed, JSON object, text lines).


def _check_hopf(max_degree: int, _) -> tuple[bool, dict, list[str]]:
    report = algebra.verify_hopf_axioms(max_degree)
    obj = {
        "algebra": report.algebra,
        "max_degree": report.max_degree,
        "checks": [asdict(r) for r in report.results],
        "passed": report.all_passed,
    }
    return report.all_passed, obj, report.lines()


def _check_gf(terms: int, _) -> tuple[bool, dict, list[str]]:
    report = sequences.verify_gf_identity(terms)
    obj = {
        "truncation_order": report.truncation_order,
        "equal": report.equal,
        "first_mismatch": report.first_mismatch,
        "lhs": [str(v) for v in report.lhs],
        "rhs": [str(v) for v in report.rhs],
    }
    if report.equal:
        line = f"gf-identity: PASS (order {report.truncation_order})"
    else:
        line = f"gf-identity: FAIL (first mismatch at x^{report.first_mismatch})"
    return report.equal, obj, [line]


def _check_closure(max_degree: int, families) -> tuple[bool, dict, list[str]]:
    reports = [closures.closure_report(f, max_degree) for f in families]
    rows, lines = [], []
    for r in reports:
        witness = r.counterexample and {"diagram": render(r.counterexample[0]), "check": r.counterexample[1]}
        rows.append(
            {
                "family": r.family.value,
                "passed": r.all_passed,
                "checks": {str(k): asdict(c) for k, c in r.checks.items()},
                "counterexample": witness,
            }
        )
        if r.all_passed:
            lines.append(f"{r.family.value}: PASS (degrees 1..{r.max_degree})")
        else:
            lines.append(f"{r.family.value}: FAIL ({witness['check']} at {witness['diagram']})")
    passed = all(r.all_passed for r in reports)
    return passed, {"max_degree": max_degree, "families": rows, "passed": passed}, lines


def _check_counts(terms: int, families) -> tuple[bool, dict, list[str]]:
    rows, lines = [], []
    for f in families:
        counted = closures.family_generator_counts(f, terms)
        expected = sequences.boolean_transform(sequences.family_dimension_sequence(f, terms))
        ok = counted == expected
        rows.append(
            {
                "family": f.value,
                "counted": [str(v) for v in counted],
                "expected": [str(v) for v in expected],
                "passed": ok,
            }
        )
        lines.append(f"{f.value}: {'PASS' if ok else 'FAIL'} ({' '.join(map(str, counted))})")
    passed = all(row["passed"] for row in rows)
    return passed, {"terms": terms, "families": rows, "passed": passed}, lines


# target -> (check, size flag, its default, its cap, default families or
# None where --family is not read)
VERIFY = {
    "hopf": (_check_hopf, "--max-degree", 2, None, None),
    "gf": (_check_gf, "--terms", 7, SEQUENCE_TERMS_CAP, None),
    "closure": (_check_closure, "--max-degree", 3, None, CLOSURE_FAMILIES),
    "counts": (_check_counts, "--terms", 4, None, FORMULA_FAMILIES),
}


def _run_verify(ns) -> int:
    check, flag, default, cap, families = VERIFY[ns.what]
    given = {"--max-degree": ns.max_degree, "--terms": ns.terms, "--family": ns.family}
    for other, value in given.items():
        if value is not None and other != flag and (other != "--family" or families is None):
            raise ValueError(f"verify {ns.what} does not take {other}")
    size = default if given[flag] is None else given[flag]
    _require_positive(size, flag, cap)
    if ns.family:
        families = (Family.from_name(ns.family),)
    passed, obj, lines = check(size, families)
    if ns.json:
        print(json.dumps(obj))
    else:
        _emit(lines)
    return 0 if passed else 1


def _run_hist(ns) -> int:
    if ns.stat != "m":
        raise ValueError("only 'hist m' is available")
    histogram = closures.m_distribution(ns.order, _family(ns), max_order=_max_order(ns))
    if ns.json:
        print(json.dumps({str(k): v for k, v in histogram.items()}))
    else:
        _emit([f"m={k} {v}" for k, v in histogram.items()])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="parsym",
        description="Exact computations in the Hopf algebra on partition diagrams.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("op", parents=[common], help="single diagram operations")
    p.add_argument("verb", choices=tuple(OPS))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_run_op)

    for name, fn in (("enumerate", _run_enumerate), ("count", _run_count)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--family", default=None)
        p.add_argument("--irreducible", action="store_true")
        p.add_argument("--bullet-irreducible", action="store_true")
        p.add_argument("--max-order", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("seq", parents=[common], help="integer sequences")
    p.add_argument("name")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--family", default=None)
    p.set_defaults(fn=_run_seq)

    p = sub.add_parser("verify", parents=[common], help="verification certificates")
    p.add_argument("what", choices=tuple(VERIFY))
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--terms", type=int, default=None)
    p.set_defaults(fn=_run_verify)

    p = sub.add_parser("hist", parents=[common], help="statistic histograms")
    p.add_argument("stat")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--family", default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(fn=_run_hist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
