"""Self-test of the benchmark itself; takes about a minute.

    python3 perfbench/selftest.py

Checks that
* the seed changes the ``words`` inputs and leaves ``enumerate`` unchanged;
* a ``words`` coproduct whose cuts give equal terms passes its check;
* a traced run of every workload passes every output check, and its traced
  and untraced job outputs have equal digests (``run.py`` counts any
  difference as a failed job);
* the metric names printed by untraced and traced runs are exactly those
  listed in ``BENCHMARK.json``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench`` the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

MERGED_TERMS_SEED = 21


def bench(*args: str, cwd=run.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    expect(workloads.jobs("words", 1) != workloads.jobs("words", 2), "the seed changes the words inputs")
    expect(workloads.jobs("enumerate", 1) == workloads.jobs("enumerate", 2), "the seed leaves enumerate unchanged")

    # at this seed two adjacent chains of one word are equal, so two cuts of
    # its coproduct give one term and the term count is below prod(m + 1)
    merged = [
        w
        for w in workloads.random_words(MERGED_TERMS_SEED)
        if w["coproduct_terms"] < workloads._prod(m + 1 for m in w["chains"])
    ]
    rc, result = bench("--workload", "words", "--seed", str(MERGED_TERMS_SEED), "--seconds", "0", "--trace", "0")
    expect(merged != [] and rc == 0 and result is not None and result["correct"], "words: merged coproduct terms pass their check")

    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        rc, result = bench("--workload", workload, "--seconds", "0", "--trace", "1")
        ok = rc == 0 and result is not None and result["correct"]
        expect(ok, f"{workload}: traced and untraced outputs agree and pass every check")
        expect(result is not None and set(result["metrics"]) == per_layer, f"{workload}: traced metric names match per_layer")

    end_to_end = {m["name"] for m in spec["end_to_end"]}
    rc, result = bench("--workload", "verify", "--seconds", "0", "--trace", "0")
    expect(rc == 0 and result is not None and result["correct"], "verify: untraced run passes every check")
    expect(result is not None and set(result["metrics"]) == end_to_end, "untraced metric names match end_to_end")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    rc, result = bench("--workload", "words", "--seed", "3", "--seconds", "10", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(rc != 0 and result is None, "without the sources the benchmark exits nonzero and prints no result")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
