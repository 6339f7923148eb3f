"""Paired A/B runs of the benchmark in two checkouts.

    python3 tools/ab.py --base DIR --head DIR --workload W --pairs N [--seconds S] [--out PATH]

Runs `python3 perfbench/run.py --workload W --trace 0 [--seconds S]` in the
base and the head checkout, N pairs, alternating which side runs first.
For each end-to-end metric of the base's BENCHMARK.json it prints every
pair's head/base ratio, their median, how many pairs the head won (ties
count for neither side), the two-sided sign-test p-value of those wins,
each side's median and quartiles, and the drift of the base from its first
run to its last.  A gain is claimed when the head wins at least nine tenths
of the pairs and the medians differ by more than the base's interquartile
range.  After the timed pairs it runs the workload once traced
(`--trace 1`, the fewest jobs run.py allows) on each side and prints every
per-layer count named in the base's perfbench/tracing.py DETERMINISTIC
that differs between the sides, or "deterministic counts identical".
--out writes these numbers, every run's metrics and both traced runs'
per-layer metrics as JSON; the last line of stdout is a JSON summary.
Exits 1 when a run reports a failed check, 2 when a run gives no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(xs) -> tuple[float, float]:
    """First and third quartile (inclusive method; one value is its own)."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses (ties dropped)."""
    n = wins + losses
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def compare(base: list[float], head: list[float], better: str) -> dict:
    """Paired comparison of one metric; run i of each side is pair i."""
    ratios = [h / b for b, h in zip(base, head)]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    q1, q3 = quartiles(base)
    base_median, head_median = statistics.median(base), statistics.median(head)
    return {
        "better": better,
        "base": base, "head": head, "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "head_wins": wins, "head_losses": losses,
        "sign_p": sign_test_p(wins, losses),
        "base_median": base_median, "base_quartiles": [q1, q3],
        "head_median": head_median, "head_quartiles": list(quartiles(head)),
        "base_drift": base[-1] / base[0],
        "gain": (wins >= 0.9 * len(base)
                 and sign * (head_median - base_median) > q3 - q1),
    }


def count_differences(base: dict, head: dict, names) -> list[str]:
    """One line per count in names whose per-layer value differs."""
    return [f"{k}: base {base.get(k)}, head {head.get(k)}"
            for k in names if base.get(k) != head.get(k)]


def deterministic_names(checkout: str) -> tuple:
    """The DETERMINISTIC counts of checkout's perfbench/tracing.py."""
    path = os.path.join(checkout, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_ab_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.DETERMINISTIC


def run_once(checkout: str, workload: str, seconds, trace: int = 0) -> dict:
    """One benchmark run in checkout: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"error: no result from {' '.join(cmd)} in {checkout}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout of the parent")
    ap.add_argument("--head", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", default=None, help="write the JSON here too")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(args.base, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    runs = {"base": [], "head": []}
    first = []
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seconds))

    metrics = {}
    for m in declared:
        name = m["name"]
        metrics[name] = compare([r["metrics"][name]["value"] for r in runs["base"]],
                                [r["metrics"][name]["value"] for r in runs["head"]],
                                m["better"])
        c = metrics[name]
        print(f"{args.workload} {name} ({m['unit']}, {m['better']} is better): "
              f"head/base {' '.join(f'{r:.3f}' for r in c['ratios'])}; "
              f"median {c['median_ratio']:.3f}; head wins {c['head_wins']} of "
              f"{args.pairs}, sign p {c['sign_p']:.3g}; base {c['base_median']:.4g} "
              f"[{c['base_quartiles'][0]:.4g}, {c['base_quartiles'][1]:.4g}], head "
              f"{c['head_median']:.4g} [{c['head_quartiles'][0]:.4g}, "
              f"{c['head_quartiles'][1]:.4g}]; base drift {c['base_drift']:.3f}"
              f"{'; gain' if c['gain'] else ''}")

    # a run shorter than any job stops after run.py's minimum of jobs
    traced_runs = {side: run_once(getattr(args, side), args.workload, 1e-3, trace=1)
                   for side in ("base", "head")}
    traced = {side: {k: v["value"] for k, v in r["metrics"].items()}
              for side, r in traced_runs.items()}
    count_diffs = count_differences(traced["base"], traced["head"],
                                    deterministic_names(args.base))
    for line in count_diffs or ["deterministic counts identical"]:
        print(f"{args.workload} {line}")

    correct = all(r["correct"] for side in runs.values() for r in side) and all(
        r["correct"] for r in traced_runs.values())
    out = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
           "first_in_pair": first, "correct": correct,
           "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
           "count_differences": count_diffs,
           "metrics": metrics, "runs": runs, "traced": traced}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    print(json.dumps({k: out[k] for k in ("workload", "pairs", "correct", "failed",
                                          "count_differences")}
                     | {"median_ratio": {k: v["median_ratio"] for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
