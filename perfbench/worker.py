"""Run one benchmark job in a fresh interpreter and report on it.

Usage: ``python3 perfbench/worker.py <trace 0|1> <span file or ->`` with the
job as JSON on stdin.  The job's own output is captured, never printed.
The last stdout line is one JSON object: the monotonic times at which the
job started and ended (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
Linux, so the parent can compare them with its own clock), peak RSS, and one
entry per output with its exit code, digest and, for short outputs, text.
Everything after the job's end (digests, checks' raw material, span files)
is outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import parsym
import parsym.cli

TEXT_LIMIT = 4096


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run_cli(argv: list[str]) -> tuple[int, str, str | None, float]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    raised = None
    t0 = perf_counter()
    try:
        rc = parsym.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises is a failed job, not a crash
        rc, raised = -1, f"{type(exc).__name__}: {exc}"
    finally:
        t1 = perf_counter()
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), raised, t1 - t0


def _run_lib(call: str, args: list):
    """The raw result of one library call; rendered after the timed region."""
    if call == "verify_hopf_axioms":
        return parsym.algebra.verify_hopf_axioms(*args)
    if call == "verify_nsym_hopf_axioms":
        return parsym.nsym.verify_nsym_hopf_axioms(*args)
    if call == "e_h_matrix":
        return parsym.algebra.e_h_matrix(*args)
    raise ValueError(f"unknown library call {call!r}")


def _render_lib(call: str, value) -> tuple[int, str]:
    if call == "e_h_matrix":
        nonzero = sum(len(row) - row.count(0) for row in value.matrix)
        return 0, f"determinant {value.determinant}\nbasis {len(value.basis)}\nnonzero {nonzero}\n"
    return (0 if value.all_passed else 1), "".join(line + "\n" for line in value.lines())


def _entry(spec: dict, rc: int, text: str, raised: str | None, seconds: float) -> dict:
    """What the checks need of one output: lines of the form
    ``<coefficient> <term>`` are counted and their coefficients summed, and
    the coefficient of the term named by ``spec["probe"]`` is looked up."""
    data = text.encode()
    terms = coeff_sum = probe_coeff = 0
    for line in text.splitlines():
        head, _, term = line.partition(" ")
        if head.lstrip("-").isdigit():
            terms += 1
            coeff_sum += int(head)
            if term == spec.get("probe"):
                probe_coeff = int(head)
    return {
        "id": spec["id"],
        "rc": rc,
        "raised": raised,
        "digest": _digest(data),
        "text": text if len(data) <= TEXT_LIMIT else None,
        "terms": terms,
        "coeff_sum": coeff_sum,
        "probe_coeff": probe_coeff,
        "seconds": seconds,
    }


def main() -> None:
    traced = sys.argv[1] == "1"
    span_path = sys.argv[2]
    job = json.load(sys.stdin)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_start = perf_counter()
    if job["kind"] == "session":
        raw = [(op, *_run_cli(op["argv"])) for op in job["ops"]]
    elif job["kind"] == "cli":
        raw = [(job, *_run_cli(job["argv"]))]
    else:
        try:
            value, raised = _run_lib(job["call"], job["args"]), None
        except Exception as exc:  # reported as a failed job
            value, raised = None, f"{type(exc).__name__}: {exc}"
    t_end = perf_counter()

    if job["kind"] == "lib":
        rc, text = _render_lib(job["call"], value) if raised is None else (-1, "")
        raw = [(job, rc, text, raised, t_end - t_start)]
    report = {
        "t_start": t_start,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": [_entry(*item) for item in raw],
    }
    if tracer is not None:
        report["trace"] = tracer.summary(t_end - t_start)
        if span_path != "-":
            tracer.write_spans(span_path, job["id"])
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
    # skip freeing every object at exit; the job is over and reported
    os._exit(0)
