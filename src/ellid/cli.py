"""Command-line interface.

    ellid list
    ellid verify --id ID --n N [--trials T] [--seed S] [--tol X]
                 [--mode auto|exact] [--param name=re,im ...]
                 [--json PATH]
    ellid sweep [--n-max N] [--trials T] [--seed S] [--tol X] [--json PATH]

Exit status: 0 if every check passed, 1 on any verification failure,
2 on a configuration error.  ELLID_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
import time

from .errors import (DomainRejected, EllidError, ResamplingExhausted,
                     TruncationNotConverged)
from .harness import (THETA_CONFIG, SampleConfig, SuiteReport, result_record,
                      run_suite, _sampled_check)
from .identities import (DEFAULT_TOL, INT_MIN, MODE_EXACT_Q, MODE_EXACT_RATIONAL,
                         _check_tol, _exact_mode, catalog, evaluate, get_identity)


def _default_seed() -> int:
    env = os.environ.get("ELLID_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"ELLID_SEED must be an integer, got {env!r}") from None


def _parse_param(text: str) -> tuple[str, complex]:
    try:
        name, val = text.split("=", 1)
        re_, *im = val.split(",")
        if len(im) > 1:
            raise ValueError(val)
        return name.strip(), complex(float(re_), float(im[0]) if im else 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected name=re[,im], got {text!r}")


def _pinned_params(desc, fixed: dict, mode: str) -> dict:
    """Pinned values checked against the identity's signature.

    Exact mode pins every parameter but q, as integers; in numeric mode the
    integer-kind parameters (m) must be integers too, at least the least
    value of their kind.  Every pinned value must be finite, a pinned nome p
    needs |p| < 1 and a pinned base q must be nonzero.
    """
    kinds = dict(desc.param_signature)
    unknown = [name for name in fixed if name not in kinds]
    if unknown:
        raise ValueError(f"{desc.id} has no parameter {', '.join(unknown)} "
                         f"(its parameters: {' '.join(kinds) or 'none'})")
    infinite = [f"{name}={v}" for name, v in fixed.items() if not cmath.isfinite(v)]
    if infinite:
        raise ValueError(f"pinned values must be finite, got {' '.join(infinite)}")
    if "p" in fixed and not abs(fixed["p"]) < 1:
        raise ValueError(f"the nome needs |p| < 1, got p={fixed['p']}")
    if fixed.get("q") == 0:
        raise ValueError("the base q must be nonzero")
    exact = mode in (MODE_EXACT_Q, MODE_EXACT_RATIONAL)
    if exact:
        if "q" in fixed:
            raise ValueError("q is the indeterminate in exact-q mode and cannot be pinned")
        missing = [name for name in kinds if name != "q" and name not in fixed]
        if missing:
            raise ValueError(f"exact mode needs every parameter of {desc.id} "
                             f"pinned; missing {', '.join(missing)}")
    prm = {}
    for name, v in fixed.items():
        kind = kinds[name]
        if not exact and kind == "complex":
            prm[name] = v
        elif (v.imag != 0 or not v.real.is_integer()
              or v.real < INT_MIN.get(kind, -math.inf)):
            need = ("exact mode needs integer parameters" if exact
                    else f"{desc.id} needs {name} of kind {kind}")
            raise ValueError(f"{need}, got {name}={v}")
        else:
            prm[name] = int(v.real)
    return prm


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ellid",
                                 description="verify elliptic and q-series identities")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the identity catalog")

    v = sub.add_parser("verify", help="verify one identity")
    v.add_argument("--id", required=True, dest="ident")
    v.add_argument("--n", required=True, type=int)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--mode", choices=["auto", "exact"], default="auto")
    v.add_argument("--param", action="append", type=_parse_param, default=[],
                   metavar="name=re,im")
    v.add_argument("--json", dest="json_path", default=None)

    s = sub.add_parser("sweep", help="verify the whole catalog")
    s.add_argument("--n-max", type=int, default=6)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--json", dest="json_path", default=None)
    return ap


def _cmd_list() -> int:
    for d in catalog():
        modes = ",".join(sorted(d.modes))
        sig = " ".join(name for name, _ in d.param_signature) or "-"
        print(f"{d.id:24s} [{modes}] params: {sig:28s} {d.title}  ({d.source})")
    return 0


def _cmd_verify(args) -> int:
    desc = get_identity(args.ident)
    _check_tol(args.tol)
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SampleConfig(seed=seed, trials=args.trials)

    mode = _exact_mode(desc) if args.mode == "exact" else "auto"
    fixed = _pinned_params(desc, dict(args.param), mode)

    pinned = " ".join(f"{name}={v}" for name, v in fixed.items())
    t0 = time.monotonic()
    records = []
    try:
        if mode in (MODE_EXACT_Q, MODE_EXACT_RATIONAL):
            res = evaluate(desc, fixed, args.n, mode, args.tol)
            records.append(result_record(res))
        else:
            for trial in range(args.trials):
                res = _sampled_check(desc, cfg, trial, args.n, args.tol, fixed)
                records.append(result_record(res))
    except TruncationNotConverged as exc:
        # every sampled nome fits under theta.MAX_TERMS; a pinned one may not
        if "p" not in fixed:
            raise
        raise ValueError(f"pinned p={fixed['p']} is too close to the unit "
                         f"circle: {exc}") from exc
    except ResamplingExhausted as exc:
        # a pinned value on a pole rejects every draw
        if not fixed:
            raise
        raise ValueError(f"pinned {pinned} rejects every draw: {exc}") from exc
    except DomainRejected as exc:
        # exact mode evaluates its pinned integers once; a pole rejects them
        if not fixed:
            raise
        raise ValueError(f"pinned {pinned} is a pole of {desc.id}: {exc}") from exc

    report = SuiteReport(config={"sample": cfg.to_dict(), "tol": args.tol,
                                 "n": args.n, "id": desc.id, "mode": args.mode,
                                 "theta": dict(THETA_CONFIG)},
                         results=records,
                         timings={"total_seconds": time.monotonic() - t0})
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report.to_json())
    ok = report.all_passed
    s = report.summary.get(desc.id, {})
    print(f"{desc.id}: n={args.n} trials={s.get('trials', 0)} "
          f"failures={s.get('failures', 0)} max_rel_err={s.get('max_rel_err', 0.0):.3g} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SampleConfig(seed=seed, trials=args.trials)
    ids = [d.id for d in catalog()]
    report = run_suite(ids, args.n_max, cfg, args.tol, include_edges=True)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report.to_json())
    failures = 0
    for ident, s in report.summary.items():
        status = "PASS" if s["failures"] == 0 else "FAIL"
        failures += s["failures"]
        print(f"{status} {ident:36s} trials={s['trials']:5d} "
              f"max_rel_err={s['max_rel_err']:.3g}")
    print(f"total: {len(report.results)} checks, {failures} failures "
          f"({report.timings['total_seconds']:.1f}s)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (EllidError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
