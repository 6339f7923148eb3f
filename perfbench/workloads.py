"""The benchmark's workloads: one job each, driven through ellid's public API.

A workload's `run(seed)` is the timed job; its `check` turns the job's output
into verdict records, (id, mode, n, trial, pass) tuples, plus the numbers
the correctness gate and the metrics need.  `checks` is the number of
verdicts one job must produce and `default_seed` the seed used when none is
given.  Every job of a run takes the run's seed, so the inputs a run
measures do not depend on how many jobs fit in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re

import ellid
import ellid.cli

#: where the sweep report and the run records go (ignored by git)
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: the 21 criterion-1 q-identities, checked exactly for n <= 25
EXACT_Q_IDS = (
    "geo", "qodds", "sp1", "sp2", "warnaar-triangular", "warnaar-cubes",
    "spc-4i", "spc-4ii", "tel-c-a1", "tel-c-b1", "tel-c-aq", "tel-c-bq",
    "triangular", "even-b1", "even-aqq", "even-bqq", "m3rising-aq-a0",
    "m3rising-aq-a1", "m3rising-aq-aq", "m3rising-q2-aq", "m3rising-q2-a1q",
)
EXACT_N_MAX = 25
#: as many spc-2 tuples as criterion 1 has: c, d in 1..3, g, h in 0..3,
#: without g = h = 0
SPC2_TUPLES = 135

#: a bigid job is a tenth of the criterion-2 run (n <= 8, 100 trials), so
#: that a run holds many jobs
BIGID_N_MAX = 8
BIGID_TRIALS = 10


class JobResult:
    """Verdicts of one job and what the gate found wrong with them."""

    def __init__(self, records, breaches, max_rel_err=None, report_bytes=0):
        self.records = records          # [(id, mode, n, trial, passed)]
        self.breaches = breaches        # [str]
        self.max_rel_err = max_rel_err  # None when the job has no numeric check
        self.report_bytes = report_bytes

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r[4])

    def digest(self) -> str:
        h = hashlib.sha256()
        for rec in self.records:
            h.update(json.dumps(rec).encode())
        return h.hexdigest()[:16]


def _numeric_max_rel_err(results) -> float:
    errs = [r["rel_err"] for r in results if r["mode"] == "numeric-elliptic"]
    return max(errs) if errs else 0.0


def _records(results):
    return [(r["id"], r["mode"], r["n"], r["trial"], bool(r["pass"]))
            for r in results]


class Sweep:
    name = "sweep"
    default_seed = 42
    checks = 6178

    def __init__(self):
        self._json = os.path.join(OUT, f"sweep-{os.getpid()}.json")

    def run(self, seed: int):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = ellid.cli.main(["sweep", "--seed", str(seed), "--json", self._json])
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._json)
            raise
        return rc, out.getvalue()

    def check(self, raw) -> JobResult:
        rc, stdout = raw
        with open(self._json) as fh:
            text = fh.read()
        os.remove(self._json)
        report = ellid.SuiteReport.from_json(text)
        breaches = []
        if rc != 0:
            breaches.append(f"ellid sweep exited {rc}")
        if report.to_json() != text:
            breaches.append("report does not round-trip through SuiteReport.from_json")
        total = re.search(r"^total: (\d+) checks, (\d+) failures", stdout, re.M)
        if total is None or int(total.group(1)) != len(report.results):
            breaches.append("printed total disagrees with the report")
        report.timings = {}  # wall-clock only; the rest is deterministic
        return JobResult(_records(report.results), breaches,
                         _numeric_max_rel_err(report.results),
                         len(report.to_json().encode()))


class Bigid:
    name = "bigid"
    default_seed = 2025
    checks = (BIGID_N_MAX + 1) * BIGID_TRIALS

    def run(self, seed: int):
        return ellid.run_suite(["bigid"], BIGID_N_MAX,
                               ellid.SampleConfig(seed=seed, trials=BIGID_TRIALS))

    def check(self, report) -> JobResult:
        return JobResult(_records(report.results), [],
                         _numeric_max_rel_err(report.results))


def spc2_tuples(seed: int) -> list[tuple]:
    """SPC2_TUPLES draws of (c, d, g, h) in 0..3, kept when in spc-2's exact
    domain (c d != 0 and c h + d g != 0)."""
    rng = random.Random(f"exact_q|{seed}")
    out = []
    while len(out) < SPC2_TUPLES:
        c, d, g, h = (rng.randint(0, 3) for _ in range(4))
        if c * d != 0 and c * h + d * g != 0:
            out.append((c, d, g, h))
    return out


class ExactQ:
    name = "exact_q"
    default_seed = 1
    checks = (len(EXACT_Q_IDS) + SPC2_TUPLES) * (EXACT_N_MAX + 1)

    def run(self, seed: int):
        cases = [(ident, None, None) for ident in EXACT_Q_IDS]
        cases += [("spc-2", dict(zip("cdgh", t)), ",".join(map(str, t)))
                  for t in spc2_tuples(seed)]
        records = []
        for ident, params, trial in cases:
            for n in range(EXACT_N_MAX + 1):
                try:
                    lhs, rhs = ellid.eval_exact(ident, n, params)
                    ok = lhs == rhs
                except (ellid.errors.EllidError, ArithmeticError):
                    ok = False
                records.append((ident, "exact-q", n, trial, ok))
        return records

    def check(self, records) -> JobResult:
        return JobResult(records, [])


WORKLOADS = {w.name: w for w in (Sweep, Bigid, ExactQ)}
