"""Per-layer tracing of ellid from outside the package.

Every traced function is replaced, for the length of a traced run, by a
wrapper in each `ellid.*` namespace that bound it, so calls made through a
re-export (``ellid.cli.run_suite``, ``ellid.identities.theta_scaled``, ...)
are seen as well.  Functions at layer boundaries record spans (name, start,
end, parent) into flat in-memory arrays; self time is derived from them when
a job ends.  The arithmetic leaves (``ScaledComplex`` and ``LaurentPoly``
operators), which run millions of times per job, record counters and
accumulated time instead of spans, so that a traced run stays small.

Tracing assumes one thread: the span stack is a plain list.  Work done in
another process is not seen.
"""

from __future__ import annotations

import builtins
import statistics
import sys
import time
from array import array

_pc = time.perf_counter

#: identities whose evaluate time is reported on its own (the costliest
#: ones in the sweep, full-elliptic contexts first, then theta factorials)
PER_IDENTITY = ("bigid", "tel-b", "tel-a", "m3rising", "tel-c", "sum-even",
                "m00", "ft-indef")

#: counts that must repeat exactly for one job input (the rest are times)
DETERMINISTIC = (
    "harness.sample.calls", "harness.draws", "harness.accept_ratio",
    "harness.rng.calls", "identities.evaluate.calls", "identities.edge.calls",
    "identities.evals_per_check", "theta.calls", "theta.factorial.calls",
    "scaled.mul.calls", "scaled.ipow.calls", "scaled.add.calls",
    "elliptic.full.calls", "elliptic.closed.calls", "qexact.mul.calls",
    "qexact.mul.term_products", "qexact.add.calls", "qexact.q_number.calls",
    "qexact.eq.calls", "harness.report.bytes",
)

#: which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "harness.sample / harness.draws / harness.rng":
        "checks_per_s on bigid and sweep; no effect on exact_q",
    "identities.evaluate / identities.edge / identities.evals_per_check":
        "checks_per_s on bigid and sweep (evals_per_check is ~2.0 on bigid; "
        "stopping the double evaluation halves it)",
    "theta":
        "wall_s, mostly on bigid, about half of it on sweep, none on exact_q",
    "scaled":
        "wall_s on bigid above all (quasi-periodicity and ipow path)",
    "elliptic.full":
        "wall_s on bigid",
    "elliptic.closed":
        "wall_s on sweep only",
    "qexact":
        "wall_s on exact_q; slight on sweep (n <= 6 sidecar checks)",
    "harness.record / harness.to_json / harness.write / harness.report.bytes "
    "/ cli.self_s":
        "wall_s and peak_rss_mb on sweep only",
    "telescope":
        "unmeasured: no workload calls it, because no sweep does",
}


class Tracer:
    """Spans and counters for one traced run; `install` / `restore` patch."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._sp_name = array("l")
        self._sp_parent = array("l")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._stack = [-1]
        self._leaf: dict[str, list] = {}  # name -> [calls, seconds, extra]
        self._sample_raised = 0  # sampler calls that exhausted resampling
        self._undo: list = []

    # ---- wrappers --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def span(self, name, fn, name_of=None):
        """Wrap fn so each call records a span; name_of(*args) refines it."""
        nid0 = self._name_id(name)
        names, stack = self._sp_name, self._stack
        parent, start, end = self._sp_parent, self._sp_start, self._sp_end
        ids = {}

        def wrapper(*args, **kw):
            nid = nid0
            if name_of is not None:
                sub = name_of(*args)
                nid = ids.get(sub)
                if nid is None:
                    nid = ids[sub] = self._name_id(f"{name}/{sub}")
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(_pc())
            try:
                return fn(*args, **kw)
            finally:
                end[i] = _pc()
                stack.pop()

        return wrapper

    def count_raises(self, fn):
        """Wrap the sampler so the calls that raise are counted."""
        def wrapper(*args, **kw):
            try:
                return fn(*args, **kw)
            except BaseException:
                self._sample_raised += 1
                raise

        return wrapper

    def count(self, name, fn, timed=False, extra=None):
        """Wrap a hot leaf: count calls, optionally time them, and add
        extra(*args) to a third accumulator."""
        acc = self._leaf.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kw):
            acc[0] += 1
            if extra is not None:
                acc[2] += extra(*args)
            if not timed:
                return fn(*args, **kw)
            t = _pc()
            try:
                return fn(*args, **kw)
            finally:
                acc[1] += _pc() - t

        return wrapper

    # ---- patching --------------------------------------------------------

    def patch_function(self, func, wrapper):
        """Rebind func to wrapper in every ellid namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "ellid" and not modname.startswith("ellid."):
                continue
            for key, val in list(vars(mod).items()):
                if val is func:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, func))

    def patch_method(self, cls, attr, make_wrapper):
        """Wrap cls.attr and every alias of it in the class (__rmul__ ...)."""
        func = cls.__dict__[attr]
        wrapper = make_wrapper(func)
        for key, val in list(vars(cls).items()):
            if val is func:
                setattr(cls, key, wrapper)
                self._undo.append((cls, key, func))

    def install(self):
        """Patch every traced layer of an imported ellid."""
        harness = sys.modules["ellid.harness"]
        identities = sys.modules["ellid.identities"]
        theta = sys.modules["ellid.theta"]
        scaled = sys.modules["ellid._scaled"]
        elliptic = sys.modules["ellid.elliptic"]
        qexact = sys.modules["ellid.qexact"]
        cli = sys.modules["ellid.cli"]

        def ident_of(ident, *_):
            return getattr(ident, "id", ident)

        fn = self.patch_function
        for sampler in (harness.sample_params, harness.sample_edge_params):
            fn(sampler, self.span("harness.sample", self.count_raises(sampler)))
        fn(harness.run_suite, self.span("harness.run_suite", harness.run_suite))
        fn(harness.result_record,
           self.span("harness.record", harness.result_record))
        fn(identities.evaluate,
           self.span("identities.evaluate", identities.evaluate, ident_of))
        fn(identities.reduce_chain_check,
           self.span("identities.edge", identities.reduce_chain_check))
        fn(theta.theta_scaled, self.span("theta", theta.theta_scaled))
        fn(theta.factorial_scaled,
           self.span("theta.factorial", theta.factorial_scaled))
        fn(qexact.q_number, self.count("qexact.q_number", qexact.q_number))
        fn(cli.main, self.span("cli", cli.main))

        # the sampler's SHA-256 stream has no public entry; its one draw
        # method is the boundary
        self.patch_method(harness._CounterRng, "_u64",
                          lambda f: self.span("harness.rng", f))
        self.patch_method(harness.SuiteReport, "to_json",
                          lambda f: self.span("harness.to_json", f))
        for attr in ("num", "wt"):
            self.patch_method(elliptic.FullEllipticCtx, attr,
                              lambda f: self.span("elliptic.full", f))
            for cls in (elliptic.ABQCtx, elliptic.AQCtx, elliptic.BQCtx,
                        elliptic.QCtx, elliptic.QInvCtx):
                self.patch_method(cls, attr,
                                  lambda f: self.span("elliptic.closed", f))

        SC = scaled.ScaledComplex
        self.patch_method(SC, "__mul__", lambda f: self.count("scaled.mul", f))
        self.patch_method(SC, "__add__", lambda f: self.count("scaled.add", f))
        self.patch_method(SC, "ipow",
                          lambda f: self.count("scaled.ipow", f, timed=True))
        LP = qexact.LaurentPoly
        self.patch_method(LP, "__mul__", lambda f: self.count(
            "qexact.mul", f, timed=True,
            extra=lambda a, b: len(a.coeffs) * len(b.coeffs)))
        self.patch_method(LP, "__add__", lambda f: self.count("qexact.add", f))
        self.patch_method(qexact.RationalFn, "__eq__",
                          lambda f: self.count("qexact.eq", f))

        # the report file is written by cli through the builtin open
        write_span = self.span("harness.write", lambda fh, text: fh.write(text))
        cli.open = lambda *a, **kw: _SpanFile(builtins.open(*a, **kw), write_span)
        self._undo.append((cli, "open", None))

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, key)
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # ---- per-job results -------------------------------------------------

    def reset(self):
        for arr in (self._sp_name, self._sp_parent, self._sp_start, self._sp_end):
            del arr[:]
        for acc in self._leaf.values():
            acc[0], acc[1], acc[2] = 0, 0.0, 0
        self._sample_raised = 0

    def job_metrics(self, checks: int) -> dict:
        """Per-layer metrics of the job traced since the last reset."""
        n = len(self._sp_start)
        names, parent = self._sp_name, self._sp_parent
        start, end = self._sp_start, self._sp_end
        child = [0.0] * n
        theta_child = [0.0] * n
        theta_id = self._name_ids.get("theta", -2)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                d = end[i] - start[i]
                child[p] += d
                if names[i] == theta_id:
                    theta_child[p] += d

        calls = [0] * len(self._names)
        total = [0.0] * len(self._names)
        self_s = [0.0] * len(self._names)
        full_ex_theta = 0.0
        full_id = self._name_ids.get("elliptic.full", -2)
        sample_id = self._name_ids.get("harness.sample", -2)
        draw_ids = {self._name_ids.get("identities.edge", -2)}
        draw_ids.update(i for nm, i in self._name_ids.items()
                        if nm.startswith("identities.evaluate/"))
        draws = 0
        for i in range(n):
            k = names[i]
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            self_s[k] += d - child[i]
            if k == full_id:
                full_ex_theta += d - theta_child[i]
            elif k in draw_ids and parent[i] >= 0 and names[parent[i]] == sample_id:
                draws += 1

        def c(name):
            i = self._name_ids.get(name)
            return calls[i] if i is not None else 0

        def s(name):
            i = self._name_ids.get(name)
            return total[i] if i is not None else 0.0

        def self_of(name):
            i = self._name_ids.get(name)
            return self_s[i] if i is not None else 0.0

        ev_calls = sum(calls[i] for nm, i in self._name_ids.items()
                       if nm.startswith("identities.evaluate/"))
        ev_s = sum(total[i] for nm, i in self._name_ids.items()
                   if nm.startswith("identities.evaluate/"))
        leaf = self._leaf
        theta_calls = c("theta")
        # a sample call that returns accepted exactly one draw; one that
        # raised (resampling exhausted) accepted none
        accepted = c("harness.sample") - self._sample_raised
        m = {
            "harness.sample.calls": c("harness.sample"),
            "harness.sample.s": s("harness.sample"),
            "harness.draws": draws,
            "harness.accept_ratio": accepted / draws if draws else 0.0,
            "harness.rng.calls": c("harness.rng"),
            "harness.rng.s": s("harness.rng"),
            "identities.evaluate.calls": ev_calls,
            "identities.evaluate.s": ev_s,
            "identities.edge.calls": c("identities.edge"),
            "identities.edge.s": s("identities.edge"),
            "identities.evals_per_check": ev_calls / checks if checks else 0.0,
            "theta.calls": theta_calls,
            "theta.s": s("theta"),
            "theta.us_per_call": 1e6 * s("theta") / theta_calls if theta_calls else 0.0,
            "theta.factorial.calls": c("theta.factorial"),
            "theta.factorial.s": s("theta.factorial"),
            "scaled.mul.calls": leaf["scaled.mul"][0],
            "scaled.ipow.calls": leaf["scaled.ipow"][0],
            "scaled.ipow.s": leaf["scaled.ipow"][1],
            "scaled.add.calls": leaf["scaled.add"][0],
            "elliptic.full.calls": c("elliptic.full"),
            "elliptic.full.self_s": full_ex_theta,
            "elliptic.closed.calls": c("elliptic.closed"),
            "elliptic.closed.s": s("elliptic.closed"),
            "qexact.mul.calls": leaf["qexact.mul"][0],
            "qexact.mul.s": leaf["qexact.mul"][1],
            "qexact.mul.term_products": leaf["qexact.mul"][2],
            "qexact.add.calls": leaf["qexact.add"][0],
            "qexact.q_number.calls": leaf["qexact.q_number"][0],
            "qexact.eq.calls": leaf["qexact.eq"][0],
            "harness.record.s": s("harness.record"),
            "harness.to_json.s": s("harness.to_json"),
            "harness.write.s": s("harness.write"),
            "cli.self_s": self_of("cli"),
        }
        for ident in PER_IDENTITY:
            m[f"identities.evaluate.{ident}.s"] = s(f"identities.evaluate/{ident}")
        return m


class _SpanFile:
    """A file whose write() calls are recorded as spans."""

    def __init__(self, fh, write_span):
        self._fh = fh
        self._write_span = write_span

    def write(self, text):
        return self._write_span(self._fh, text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


def median_metrics(per_job: list[dict]) -> dict:
    """Counts from the first job, times as the median over all jobs."""
    out = dict(per_job[0])
    for key in out:
        if key not in DETERMINISTIC:
            out[key] = statistics.median(m[key] for m in per_job)
    return out
