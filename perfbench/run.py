"""Run one benchmark workload against the ellid sources in ../src.

    python3 perfbench/run.py --workload {sweep,bigid,exact_q} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root.  The run first times `import ellid` in fresh
interpreters (setup_s), then runs the workload's job in a closed loop until
--seconds have passed (at least MIN_JOBS jobs), every job on the inputs of
--seed, checking every job's verdicts and that they repeat job 0's.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it patches the
traced layers (see tracing.py) and reports per-layer metrics instead.  Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
A fuller record, stamped with the machine and commit, goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.  Exit status is 0 when every
check passed, 1 when any failed, 2 when the sources or spec are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_JOBS = 2
SETUP_SAMPLES = 9
_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "t = time.perf_counter(); import ellid; "
           "print(time.perf_counter() - t)")


def stamp() -> dict:
    """Machine, interpreter and commit the result was measured on."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "loadavg_at_start": list(os.getloadavg())}


def setup_seconds() -> float:
    """Median time of `import ellid` in fresh interpreters.

    The first import is discarded: it may compile the bytecode cache.
    """
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def run_jobs(wl, seed: int, seconds: float, tracer) -> dict:
    """Closed loop of jobs; returns per-job walls, verdict tallies, layers."""
    walls, layers, digests, breaches = [], [], [], []
    attempted = failed = 0
    max_rel_err = peak_rss_mb = None
    t_start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        raw = wl.run(seed)
        wall = time.perf_counter() - t0
        walls.append(wall)
        if peak_rss_mb is None:
            # before any check runs, so the benchmark's own parsing of the
            # report does not count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            layers.append(tracer.job_metrics(wl.checks))
        res = wl.check(raw)
        if len(res.records) != wl.checks:
            res.breaches.append(f"{len(res.records)} checks, expected {wl.checks}")
        digests.append(res.digest())
        if digests[-1] != digests[0]:
            res.breaches.append(f"job {len(digests) - 1} verdicts differ from job 0's")
        attempted += wl.checks
        failed += res.failures + len(res.breaches)
        breaches += res.breaches
        if res.max_rel_err is not None:
            max_rel_err = max(max_rel_err or 0.0, res.max_rel_err)
        if tracer:
            layers[-1]["harness.report.bytes"] = res.report_bytes
            layers[-1]["trace.wall_s"] = wall
        elapsed = time.perf_counter() - t_start
        if len(walls) >= MIN_JOBS and elapsed + statistics.median(walls) > seconds:
            break
    return {"walls": walls, "layers": layers, "digests": digests,
            "breaches": breaches, "attempted": attempted, "failed": failed,
            "max_rel_err": max_rel_err, "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "bigid", "exact_q"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ellid", "__init__.py")):
        print(f"error: no ellid sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)

    seconds = args.seconds or spec["run_seconds"]
    started = stamp()
    setup_s = None if args.trace else setup_seconds()
    sys.path.insert(0, SRC)
    from tracing import Tracer, median_metrics
    from workloads import OUT, WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    seed = wl.default_seed if args.seed is None else args.seed
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        res = run_jobs(wl, seed, seconds, tracer)
    finally:
        if tracer:
            tracer.restore()

    walls = res["walls"]
    if tracer:
        declared = spec["per_layer"]
        metrics = median_metrics(res["layers"])
    else:
        declared = spec["end_to_end"]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "checks_per_s": wl.checks * len(walls) / sum(walls),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"BENCHMARK.json declares {sorted(set(units) ^ set(metrics))} "
                         "differently from what the run measures")

    correct = res["failed"] == 0
    fail_ratio = res["failed"] / res["attempted"]
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {fail_ratio:.6g} "
          f"({res['failed']} of {res['attempted']})")
    if res["max_rel_err"] is not None:
        print(f"{args.workload} max_rel_err = {res['max_rel_err']:.6g}")
    print(f"{args.workload} jobs = {len(walls)}, verdict digest = {res['digests'][0]}")
    for breach in res["breaches"]:
        print(f"{args.workload} BREACH {breach}")

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": seconds, "stamp": started,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "fail_ratio": fail_ratio, "max_rel_err": res["max_rel_err"],
              "attempted": res["attempted"], "failed": res["failed"],
              "job_walls_s": walls, "job_digests": res["digests"],
              "breaches": res["breaches"], "per_job_layers": res["layers"]}
    path = os.path.join(OUT, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
