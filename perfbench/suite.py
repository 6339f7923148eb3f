"""Run every workload at its default seed and record the baseline.

    python3 perfbench/suite.py

For each workload in BENCHMARK.json this makes one untraced run and two
traced runs of perfbench/run.py, prints the end-to-end metrics with their
units (plus fail_ratio and, on numeric workloads, max_rel_err), checks that
the deterministic per-layer counts and the verdict digest repeat exactly
between runs, reports the tracing overhead (traced minus untraced wall_s)
and writes everything to perfbench/baseline.json.  Exit status is 0 when
every run was correct and every count repeated, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import SPEC, stamp  # noqa: E402
from tracing import DETERMINISTIC, LAYER_MAP  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"run.py failed on {workload}:\n{proc.stderr}")
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    for breach in record["breaches"]:
        print(f"{workload} BREACH {breach}")
    return record


def main() -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    ok = True
    baseline = {"stamp": stamp(), "seconds": seconds, "layer_map": LAYER_MAP,
                "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        seed = WORKLOADS[name].default_seed
        plain = run(name, seed, seconds, 0)
        for metric, m in plain["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_ratio = {plain['fail_ratio']:.6g}")
        if plain["max_rel_err"] is not None:
            print(f"{name} max_rel_err = {plain['max_rel_err']:.6g}")
        traced = [run(name, seed, seconds, 1) for _ in range(2)]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        unstable = [k for k in DETERMINISTIC if layers[0][k] != layers[1][k]]
        digests = {r["job_digests"][0] for r in [plain] + traced}
        overhead = layers[0]["trace.wall_s"] - plain["metrics"]["wall_s"]["value"]
        correct = all(r["failed"] == 0 for r in [plain] + traced)
        ok = ok and correct and not unstable and len(digests) == 1
        if unstable:
            print(f"{name} counts differ between traced runs: {unstable}")
        if len(digests) != 1:
            print(f"{name} verdict digest differs between runs: {sorted(digests)}")
        print(f"{name} tracing overhead = {overhead:.4g} s per job")
        baseline["workloads"][name] = {
            "why": w["why"], "seed": seed,
            "end_to_end": plain["metrics"], "fail_ratio": plain["fail_ratio"],
            "max_rel_err": plain["max_rel_err"], "digest": plain["job_digests"][0],
            "per_layer": traced[0]["metrics"], "tracing_overhead_s": overhead,
            "counts_repeat": not unstable, "correct": correct,
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
