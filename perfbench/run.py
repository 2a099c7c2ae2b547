"""The parsym benchmark.

    python3 perfbench/run.py --workload enumerate|verify|words|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src``.
Each workload is a fixed job list (see ``workloads.py``) that is repeated as
passes until ``--seconds`` are used, with at least ``MIN_PASSES`` passes.
Every job runs in a fresh interpreter started by this script (the ``words``
session is one such job), one at a time, so there is one process stream and
no threads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones.  Every output is checked after its job has ended; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 when any check failed.  ``--workload all``
runs the three workloads untraced and prints every end-to-end metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = BENCH / "golden.json"

MIN_PASSES = 3
# set-up is sampled this many times before every untraced pass, so that its
# samples spread over the whole run instead of one moment of the host
SETUP_REPS_PER_PASS = 3
# a run must end within 180 s; no pass starts that is expected to end later
RUN_BUDGET_S = 160.0
HASH_SEED = "0"


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PARSYM_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def calibration_s() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs us."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - t0


def host_record() -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().split()[:3]
    return {"loadavg": [float(v) for v in load], "calibration_s": calibration_s(), "time": time.time()}


def measure_setup(env: dict, reps: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import parsym`` is
    done, ``reps`` times."""
    code = "import sys, parsym; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.communicate(timeout=30)
        if line != b"ready\n" or proc.returncode != 0:
            raise HarnessError("import parsym failed")
        samples.append(t1 - t0)
    return samples


def run_job(job: dict, traced: bool, env: dict, deadline: float, span_path: str = "-") -> dict:
    """Run one job in a fresh worker; ``wall`` runs from process start to the
    end of the job, so output digests and checks are not timed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "1" if traced else "0", span_path]
    t_spawn = perf_counter()
    with subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "timeout"}
    t_exit = perf_counter()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {err.decode().strip()[-300:]}"}
    report = json.loads(lines[-1])
    if not t_spawn <= report["t_start"] <= report["t_end"] <= t_exit:
        raise HarnessError("worker clock is not comparable with the parent's")
    report["job"] = job["id"]
    report["wall"] = report["t_end"] - t_spawn
    report["startup"] = report["t_start"] - t_spawn
    return report


def expected_ids(job: dict) -> list[str]:
    return [op["id"] for op in job["ops"]] if job["kind"] == "session" else [job["id"]]


def spec_by_id(jobs: list[dict]) -> dict[str, dict]:
    out = {}
    for job in jobs:
        for item in job["ops"] if job["kind"] == "session" else [job]:
            out[item["id"]] = item
    return out


def check_pass(results: list[dict], jobs: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every output of one pass."""
    specs = spec_by_id(jobs)
    attempted = failed = 0
    reasons = []
    for job, result in zip(jobs, results):
        ids = expected_ids(job)
        attempted += len(ids)
        if "error" in result:
            failed += len(ids)
            reasons.append(f"{job['id']}: {result['error']}")
            continue
        outputs = {o["id"]: o for o in result["outputs"]}
        for oid in ids:
            out = outputs.get(oid)
            reason = "no output" if out is None else workloads.check_output(specs[oid], out)
            if reason is None and golden is not None and golden.get(oid) != out["digest"]:
                reason = f"digest {out['digest']} differs from the golden {golden.get(oid)}"
            if reason is not None:
                failed += 1
                reasons.append(f"{oid}: {reason}")
    return attempted, failed, reasons


def digests(results: list[dict]) -> dict[str, str]:
    return {o["id"]: o["digest"] for r in results if "error" not in r for o in r["outputs"]}


def run_pass(jobs: list[dict], traced: bool, env: dict, deadline: float, span_prefix: str | None = None) -> list[dict]:
    results = []
    for job in jobs:
        span_path = "-" if span_prefix is None else str(OUT / f"{span_prefix}-{job['id']}.jsonl")
        results.append(run_job(job, traced, env, deadline, span_path))
    return results


def pass_wall(results: list[dict]) -> float:
    return sum(r.get("wall", 0.0) for r in results)


def time_samples(passes: list[list[dict]]) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Every sample, in seconds, of each job's interpreter start-up and of
    each op over the passes.  An op is one session op, or else the work of
    one whole job after its interpreter has started."""
    startups: dict[str, list[float]] = {}
    ops: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            if "error" in r:
                continue
            startups.setdefault(r["job"], []).append(r["startup"])
            for o in r["outputs"]:
                ops.setdefault(o["id"], []).append(o["seconds"])
    return startups, ops


def median_times(passes: list[list[dict]]) -> tuple[list[float], list[float]]:
    """(start-ups, op latencies) in seconds: for each job's interpreter
    start-up and for each op, the median of its samples over the passes.

    Every pass runs the same ops in fresh processes with a fixed hash seed,
    so the samples of an op differ only by how fast the host ran at that
    moment.  Over ten seeds of every workload the per-op median spread
    less between runs than the fastest sample did (see README.md)."""
    startups, ops = time_samples(passes)
    return [median(v) for v in startups.values()], [median(v) for v in ops.values()]


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return max(samples, default=0.0)
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup: list[float], passes: list[list[dict]]) -> dict:
    startups, ops = median_times(passes)
    latencies_ms = [1000.0 * v for v in ops]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (sum(startups) + sum(ops), "s"),
        "peak_rss_mb": (median(max(r.get("maxrss_kb", 0) for r in p) / 1024.0 for p in passes), "MB"),
        "op_p50_ms": (median(latencies_ms), "ms"),
        "op_p95_ms": (percentile(latencies_ms, 95), "ms"),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    names: dict[str, dict] = {}
    caches: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    startup = outside = 0.0
    for r in results:
        if "error" in r:
            continue
        trace = r["trace"]
        startup += r["startup"]
        outside += trace["outside_s"]
        for name, row in trace["names"].items():
            acc = names.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for name, info in trace["caches"].items():
            acc = caches.setdefault(name, [0, 0, 0])
            acc[0] += info["hits"]
            acc[1] += info["misses"]
            acc[2] += info["size"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def field(name: str, key: str):
        return names.get(name, {}).get(key, 0)

    def hit_ratio(cache: str) -> float:
        hits, misses, _ = caches.get(cache, [0, 0, 0])
        return _ratio(hits, misses)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        rows = [row for name, row in names.items() if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(row["self_s"] for row in rows), "s")
        out[f"{layer}.errors"] = (sum(row["errors"] for row in rows), "count")
    out["cli.calls"] = (sum(row["entries"] for name, row in names.items() if name.startswith("cli.")), "count")
    out["diagrams.construct.calls"] = (field("diagrams.construct", "calls"), "count")
    out["diagrams.enumerate.yielded"] = (field("diagrams.enumerate_diagrams", "yielded"), "count")
    out["diagrams.render.calls"] = (field("diagrams.render", "calls"), "count")
    out["diagrams.render.self_s"] = (field("diagrams.render", "self_s"), "s")
    out["diagrams.tensor.calls"] = (field("diagrams.tensor", "calls"), "count")
    out["diagrams.tensor.hit_ratio"] = (hit_ratio("diagrams.tensor"), "ratio")
    out["diagrams.bullet.hit_ratio"] = (hit_ratio("diagrams.bullet"), "ratio")
    out["diagrams.factorize.hit_ratio"] = (hit_ratio("diagrams._tensor_factorize"), "ratio")
    out["diagrams.cache_entries"] = (sum(c[2] for n, c in caches.items() if n.startswith("diagrams.")), "count")
    member_calls = field("families.family_member", "calls")
    out["families.member.calls"] = (member_calls, "count")
    accepted = counters.get("families.family_member.accepted", 0)
    out["families.accept_ratio"] = (accepted / member_calls if member_calls else 0.0, "ratio")
    out["sequences.compositions.yielded"] = (field("sequences.compositions", "yielded"), "count")
    out["closures.members.yielded"] = (field("closures.family_members", "yielded"), "count")
    out["algebra.e_h_matrix.self_s"] = (field("algebra.e_h_matrix", "self_s"), "s")
    out["algebra.coproduct_word.hit_ratio"] = (hit_ratio("algebra._coproduct_word"), "ratio")
    out["algebra.antipode_word.hit_ratio"] = (hit_ratio("algebra._antipode_word"), "ratio")
    out["algebra.antipode_generator.hit_ratio"] = (hit_ratio("algebra._antipode_generator"), "ratio")
    out["algebra.cache_entries"] = (sum(c[2] for n, c in caches.items() if n.startswith("algebra.")), "count")
    out["linear.mul.calls"] = (field("linear.mul", "calls"), "count")
    out["linear.mul.term_pairs"] = (counters.get("linear.mul.term_pairs", 0), "count")
    out["trace.wall_s"] = (pass_wall(results), "s")
    out["trace.startup_s"] = (startup, "s")
    out["trace.outside_s"] = (outside, "s")
    return out


def median_metrics(rows: list[dict]) -> dict:
    return {name: (median(row[name][0] for row in rows), unit) for name, (_, unit) in rows[0].items()}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    run_start = perf_counter()
    deadline = run_start + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "hash_seed": HASH_SEED,
        "start": host_record(),
    }
    jobs = workloads.jobs(workload, seed)
    # an untraced pass times short jobs more than once (see workloads.py);
    # a traced pass runs each job once, so its counts are those of one pass
    timed_jobs = [job for job in jobs for _ in range(1 if traced else job.get("samples", 1))]
    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, {})
    setup: list[float] = []
    if not traced:
        measure_setup(env, 1)  # fills the bytecode cache
    cpu0 = os.times()
    untraced: list[list[dict]] = []
    traced_passes: list[list[dict]] = []
    attempted = failed = 0
    reasons: list[str] = []
    calibration: list[float] = []
    t_loop = perf_counter()
    while True:
        if not traced:
            setup += measure_setup(env, SETUP_REPS_PER_PASS)
        results = run_pass(timed_jobs, False, env, deadline)
        untraced.append(results)
        a, f, why = check_pass(results, timed_jobs, golden)
        attempted, failed, reasons = attempted + a, failed + f, reasons + why
        if traced:
            results_t = run_pass(jobs, True, env, deadline, f"spans-{workload}-seed{seed}")
            traced_passes.append(results_t)
            a, f, why = check_pass(results_t, jobs, golden)
            attempted, failed, reasons = attempted + a, failed + f, reasons + why
            plain = digests(results)
            for oid, digest in digests(results_t).items():
                if plain.get(oid) != digest:
                    failed += 1
                    reasons.append(f"{oid}: traced output differs from untraced")
        calibration.append(calibration_s())
        done = len(untraced)
        now = perf_counter()
        per_pass = (now - t_loop) / done
        if done >= (1 if traced else MIN_PASSES) and now - t_loop + per_pass > seconds:
            break
        if now + per_pass > deadline:
            break
    cpu1 = os.times()
    record["passes"] = len(untraced)
    record["pass_wall_s"] = [pass_wall(p) for p in untraced]
    record["pass_calibration_s"] = calibration
    record["children_cpu_s"] = (cpu1.children_user + cpu1.children_system) - (cpu0.children_user + cpu0.children_system)
    record["passes_wall_s"] = perf_counter() - t_loop
    record["end"] = host_record()
    record["failures"] = reasons[:20]
    if traced:
        metrics = median_metrics([layer_metrics(p) for p in traced_passes])
        plain_wall = median(pass_wall(p) for p in untraced)
        metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"][0] / plain_wall, "ratio")
        record["spans_dropped"] = sum(r["trace"]["spans_dropped"] for p in traced_passes for r in p if "trace" in r)
    else:
        metrics = end_to_end_metrics(setup, untraced)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        record["setup_samples_s"] = setup
        record["startup_samples_s"], record["op_samples_s"] = time_samples(untraced)
    (OUT / f"record-{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"record": record, "metrics": metrics, "attempted": attempted, "failed": failed}


def benchmark_metric_names(traced: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def result_line(outcome: dict, names: list[str]) -> str:
    metrics = {
        name: {"value": outcome["metrics"][name][0], "unit": outcome["metrics"][name][1]} for name in names
    }
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        }
    )


def print_table(workload: str, outcome: dict) -> None:
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{workload:10s} {name:40s} {value:14.6g} {unit}")
    for reason in outcome["record"]["failures"]:
        print(f"{workload:10s} FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parsym" / "__init__.py").is_file():
        print(f"error: no parsym sources under {SRC}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")
    names = benchmark_metric_names(bool(args.trace))
    outcomes = {}
    try:
        for workload in chosen:
            outcomes[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print("record " + json.dumps(outcomes[workload]["record"]))
            print_table(workload, outcomes[workload])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        merged = {
            "metrics": {f"{w}.{n}": o["metrics"][n] for w, o in outcomes.items() for n in [*names, "failed_frac"]},
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
        }
        print(result_line(merged, list(merged["metrics"])))
        return 0 if merged["failed"] == 0 else 1
    outcome = outcomes[args.workload]
    print(result_line(outcome, names))
    return 0 if outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
