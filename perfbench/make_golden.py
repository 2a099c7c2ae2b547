"""Write ``golden.json``: the stdout digest of every job at the default seed.

    python3 perfbench/make_golden.py

Run it only on code whose output is known to be right; the benchmark then
fails any later run at the default seed whose output is not byte-identical.
Each job's output must pass its independent check before it is recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    golden = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
        results = run.run_pass(jobs, False, env, run.perf_counter() + 600)
        _, failed, reasons = run.check_pass(results, jobs, None)
        if failed:
            print("\n".join(reasons), file=sys.stderr)
            return 1
        golden[workload] = run.digests(results)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
