"""Run every workload once per seed and summarise the end-to-end metrics.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For each workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in ``BENCHMARK.json``.  With ``--out`` it also writes the
summary, every value and every run's host record as JSON.  The runs take
about 40 s each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        records = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            record = next(json.loads(line[7:]) for line in lines if line.startswith("record "))
            records.append({key: record[key] for key in ("seed", "python", "nproc", "passes", "children_cpu_s", "start", "end")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result['correct']}", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "values": vals}
            print(f"{workload:10s} {name:14s} median {median:12.6g}  spread {spread:.3f}  bound {bounds[name]}")
        summary["workloads"][workload] = {"metrics": rows, "records": records}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
