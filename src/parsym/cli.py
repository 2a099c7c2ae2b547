"""Deterministic command-line surface.

Same inputs always produce byte-identical output.  Exit codes: 0 for
success or a passing verification, 1 for a failing verification, 2 for
usage errors (including explicit cap refusals).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
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
from .families import Family, count_family, enumerate_family

OP_VERBS = (
    "parse",
    "render",
    "tensor",
    "bullet",
    "vcompose",
    "factorize",
    "bullet-decompose",
    "m",
    "propagation",
    "coproduct",
    "antipode",
    "e-expand",
    "chi",
    "phi",
    "zeta",
    "qsym-image",
)

# Sequences cost O(terms^2) big-integer products, each boolean(...) one more
# transform; the slowest name at both caps takes 3.5 s on a 2-vCPU host.
SEQUENCE_TERMS_CAP = 400
SEQUENCE_NESTING_CAP = 8
# op phi builds a diagram of order sum(alpha); at the cap it takes under 1 s
# and 80 MB on a 2-vCPU host, whatever the parts
PHI_ORDER_CAP = 100_000

CLOSURE_FAMILIES = tuple(f for f in Family if f is not Family.ALL)
# the planar composites have no closed dimension formula
FORMULA_FAMILIES = tuple(f for f in CLOSURE_FAMILIES if "planar-" not in f.value)


class UsageError(ValueError):
    pass


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
    if as_json:
        print(json.dumps(to_json_obj(d)))
    else:
        print(render(d))


def _diagram_list_out(ds: list[PartitionDiagram], as_json: bool) -> None:
    if as_json:
        print(json.dumps([to_json_obj(d) for d in ds]))
    else:
        _emit([render(d) for d in ds])


def _parsym_out(el: algebra.ParSymElement, as_json: bool) -> None:
    # each word rendered once; (order, text) is diagrams.sort_key
    items = sorted((d.order, render(d), c) for d, c in el.terms.items())
    if as_json:
        print(json.dumps({text: str(c) for _, text, c in items}))
    else:
        _emit(f"{c} {text}" for _, text, c in items)


def _tensor_out(el: algebra.DiagramTensor, as_json: bool) -> None:
    items = sorted(
        (l.order, render(l), r.order, render(r), c) for (l, r), c in el.terms.items()
    )
    if as_json:
        print(json.dumps({f"{lt}⦿{rt}": str(c) for _, lt, _, rt, c in items}))
    else:
        _emit(f"{c} {lt}|x|{rt}" for _, lt, _, rt, c in items)


def _nsym_items(el: nsym.NSymElement):
    return sorted(
        el.terms.items(), key=lambda item: (sum(item[0]), item[0])
    )


def _nsym_out(el: nsym.NSymElement, as_json: bool) -> None:
    items = _nsym_items(el)
    if as_json:
        print(json.dumps({nsym.render_composition(a): str(c) for a, c in items}))
    else:
        _emit([f"{c} {nsym.render_composition(a)}" for a, c in items])


def _qsym_out(el: nsym.QSymImage, as_json: bool) -> None:
    items = sorted(el.terms.items(), key=lambda item: (sum(item[0]), item[0]))
    if as_json:
        print(
            json.dumps({"M" + nsym.render_composition(a): str(c) for a, c in items})
        )
    else:
        _emit([f"{c} M{nsym.render_composition(a)}" for a, c in items])


def _require_positive(value: int, flag: str, cap: int | None = None) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise UsageError(f"{flag} {value} exceeds the cap {cap}")


def _require(args: list[str], count: int, verb: str) -> None:
    if len(args) != count:
        raise UsageError(f"op {verb} expects {count} argument(s), got {len(args)}")


def _run_op(ns) -> int:
    verb, args = ns.verb, ns.args
    if verb in ("parse", "render"):
        _require(args, 1, verb)
        _diagram_out(_read_diagram(args[0]), ns.json and verb == "parse")
        return 0
    if verb in ("tensor", "bullet"):
        _require(args, 2, verb)
        fn = tensor if verb == "tensor" else bullet
        _diagram_out(fn(_read_diagram(args[0]), _read_diagram(args[1])), ns.json)
        return 0
    if verb == "vcompose":
        _require(args, 2, verb)
        d, removed = vertical_compose(_read_diagram(args[0]), _read_diagram(args[1]))
        if ns.json:
            print(json.dumps({"diagram": to_json_obj(d), "removed": removed}))
        else:
            print(f"{render(d)} removed={removed}")
        return 0
    if verb in ("factorize", "bullet-decompose"):
        _require(args, 1, verb)
        fn = tensor_factorize if verb == "factorize" else bullet_decompose
        _diagram_list_out(fn(_read_diagram(args[0])), ns.json)
        return 0
    if verb in ("m", "propagation", "zeta"):
        _require(args, 1, verb)
        d = _read_diagram(args[0])
        value = {
            "m": m_statistic,
            "propagation": propagation_number,
            "zeta": lambda x: algebra.character_zeta(algebra.h(x)),
        }[verb](d)
        print(json.dumps(value) if ns.json else value)
        return 0
    if verb in ("coproduct", "antipode", "e-expand"):
        _require(args, 1, verb)
        d = _read_diagram(args[0])
        if verb == "coproduct":
            # a tensor factor f splits in m(f) + 1 ways, empty sides included
            choices = math.prod(m_statistic(f) + 1 for f in algebra._factors(d))
            cap = algebra.REGROUPING_CUT_CAP
            if choices > 2**cap:
                raise UsageError(f"{choices} coproduct cut choices exceed the cap 2^{cap}")
            _tensor_out(algebra.coproduct(algebra.h(d)), ns.json)
            return 0
        # both refuse a word past algebra.REGROUPING_CUT_CAP bullet cuts
        value = algebra.antipode(algebra.h(d)) if verb == "antipode" else algebra.e_basis_expand(d)
        _parsym_out(value, ns.json)
        return 0
    if verb == "chi":
        _require(args, 1, verb)
        _nsym_out(nsym.chi(algebra.h(_read_diagram(args[0]))), ns.json)
        return 0
    if verb == "phi":
        _require(args, 1, verb)
        alpha = nsym.parse_composition(_read_text_argument(args[0]).strip())
        if sum(alpha) > PHI_ORDER_CAP:
            raise UsageError(f"composition total {sum(alpha)} exceeds the cap {PHI_ORDER_CAP}")
        _parsym_out(nsym.phi(nsym.nsym_h(alpha)), ns.json)
        return 0
    if verb == "qsym-image":
        _require(args, 1, verb)
        _qsym_out(nsym.qsym_image(algebra.h(_read_diagram(args[0]))), ns.json)
        return 0
    raise UsageError(f"unknown op verb {verb!r}")


def _family(ns) -> Family:
    return Family.from_name(ns.family) if ns.family else Family.ALL


def _selected_diagrams(ns):
    for d in enumerate_family(ns.order, _family(ns), max_order=ns.max_order):
        if ns.irreducible and not is_tensor_irreducible(d):
            continue
        if ns.bullet_irreducible and not is_bullet_irreducible(d):
            continue
        yield d


def _run_enumerate(ns) -> int:
    ds = list(_selected_diagrams(ns))
    _diagram_list_out(ds, ns.json)
    return 0


def _run_count(ns) -> int:
    if ns.bullet_irreducible:  # not a fact of a prefix: count the leaves
        count = sum(1 for _ in _selected_diagrams(ns))
    else:
        count = count_family(ns.order, _family(ns), ns.max_order, ns.irreducible)
    print(json.dumps(count) if ns.json else count)
    return 0


def _resolve_sequence(name: str, family_name: str | None, terms: int) -> list[int]:
    name = name.strip()
    if name == "a":
        return sequences.irreducible_count_sequence(terms)
    if name == "bell":
        return sequences.bell_sequence(terms)
    if name == "bell-even":
        return sequences.even_bell_sequence(terms)
    if name.startswith("boolean(") and name.endswith(")"):
        return sequences.boolean_transform(
            _resolve_sequence(name[8:-1], family_name, terms)
        )
    if name == "boolean":
        if family_name:
            base = sequences.family_dimension_sequence(
                Family.from_name(family_name), terms
            )
        else:
            base = sequences.even_bell_sequence(terms)
        return sequences.boolean_transform(base)
    if name.startswith("dim(") and name.endswith(")"):
        return sequences.family_dimension_sequence(
            Family.from_name(name[4:-1]), terms
        )
    if name == "dim":
        if not family_name:
            raise UsageError("seq dim requires --family")
        return sequences.family_dimension_sequence(
            Family.from_name(family_name), terms
        )
    raise UsageError(f"unknown sequence {name!r}")


def _run_seq(ns) -> int:
    _require_positive(ns.terms, "--terms", SEQUENCE_TERMS_CAP)
    if ns.name.count("boolean(") > SEQUENCE_NESTING_CAP:
        raise UsageError(f"boolean(...) nested past the cap {SEQUENCE_NESTING_CAP}")
    values = _resolve_sequence(ns.name, ns.family, ns.terms)
    if ns.json:
        print(json.dumps([str(v) for v in values]))
    else:
        _emit([str(v) for v in values])
    return 0


def _run_verify(ns) -> int:
    if ns.max_degree is None:
        ns.max_degree = 3 if ns.what == "closure" else 2
    if ns.terms is None:
        ns.terms = 7 if ns.what == "gf" else 4
    if ns.what in ("gf", "counts"):
        cap = SEQUENCE_TERMS_CAP if ns.what == "gf" else None
        _require_positive(ns.terms, "--terms", cap)
    else:
        _require_positive(ns.max_degree, "--max-degree")
    if ns.what == "hopf":
        report = algebra.verify_hopf_axioms(ns.max_degree)
        if ns.json:
            print(
                json.dumps(
                    {
                        "algebra": report.algebra,
                        "max_degree": report.max_degree,
                        "checks": [
                            {
                                "name": r.name,
                                "passed": r.passed,
                                "counterexample": r.counterexample,
                            }
                            for r in report.results
                        ],
                        "passed": report.all_passed,
                    }
                )
            )
        else:
            _emit(report.lines())
        return 0 if report.all_passed else 1

    if ns.what == "gf":
        report = sequences.verify_gf_identity(ns.terms)
        if ns.json:
            print(
                json.dumps(
                    {
                        "truncation_order": report.truncation_order,
                        "equal": report.equal,
                        "first_mismatch": report.first_mismatch,
                        "lhs": [str(v) for v in report.lhs],
                        "rhs": [str(v) for v in report.rhs],
                    }
                )
            )
        elif report.equal:
            print(f"gf-identity: PASS (order {report.truncation_order})")
        else:
            print(f"gf-identity: FAIL (first mismatch at x^{report.first_mismatch})")
        return 0 if report.equal else 1

    if ns.what == "closure":
        families = (
            [Family.from_name(ns.family)] if ns.family else list(CLOSURE_FAMILIES)
        )
        reports = [closures.closure_report(f, ns.max_degree) for f in families]
        if ns.json:
            print(
                json.dumps(
                    {
                        "max_degree": ns.max_degree,
                        "families": [
                            {
                                "family": r.family.value,
                                "passed": r.all_passed,
                                "checks": {
                                    str(k): {
                                        "tensor_closed": c.tensor_closed,
                                        "delta_closed": c.delta_closed,
                                        "antipode_closed": c.antipode_closed,
                                        "primitive_count": c.primitive_count,
                                    }
                                    for k, c in r.checks.items()
                                },
                                "counterexample": None
                                if r.counterexample is None
                                else {
                                    "diagram": render(r.counterexample[0]),
                                    "check": r.counterexample[1],
                                },
                            }
                            for r in reports
                        ],
                        "passed": all(r.all_passed for r in reports),
                    }
                )
            )
        else:
            for r in reports:
                if r.all_passed:
                    print(f"{r.family.value}: PASS (degrees 1..{r.max_degree})")
                else:
                    d, check = r.counterexample
                    print(f"{r.family.value}: FAIL ({check} at {render(d)})")
        return 0 if all(r.all_passed for r in reports) else 1

    if ns.what == "counts":
        families = (
            [Family.from_name(ns.family)] if ns.family else list(FORMULA_FAMILIES)
        )
        rows = []
        for f in families:
            counted = closures.family_generator_counts(f, ns.terms)
            expected = sequences.boolean_transform(
                sequences.family_dimension_sequence(f, ns.terms)
            )
            rows.append((f, counted, expected))
        if ns.json:
            print(
                json.dumps(
                    {
                        "terms": ns.terms,
                        "families": [
                            {
                                "family": f.value,
                                "counted": [str(v) for v in counted],
                                "expected": [str(v) for v in expected],
                                "passed": counted == expected,
                            }
                            for f, counted, expected in rows
                        ],
                        "passed": all(c == e for _, c, e in rows),
                    }
                )
            )
        else:
            for f, counted, expected in rows:
                status = "PASS" if counted == expected else "FAIL"
                values = " ".join(str(v) for v in counted)
                print(f"{f.value}: {status} ({values})")
        return 0 if all(c == e for _, c, e in rows) else 1

    raise UsageError(f"unknown verify target {ns.what!r}")


def _run_hist(ns) -> int:
    if ns.stat != "m":
        raise UsageError("only 'hist m' is available")
    family = Family.from_name(ns.family) if ns.family else Family.ALL
    cap = ns.max_order if ns.max_order is not None else closures.M_DISTRIBUTION_CAP
    histogram = closures.m_distribution(ns.order, family, max_order=cap)
    if ns.json:
        print(json.dumps({str(k): v for k, v in histogram.items()}))
    else:
        _emit([f"m={k} {v}" for k, v in histogram.items()])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsym",
        description="Exact computations in the Hopf algebra on partition diagrams.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("op", parents=[common], help="single diagram operations")
    p.add_argument("verb", choices=OP_VERBS)
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
    p.add_argument("what", choices=("hopf", "gf", "closure", "counts"))
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
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
