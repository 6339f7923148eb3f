"""Command-line interface.

    ellid list
    ellid verify --id ID --n N [--trials T] [--seed S] [--tol X]
                 [--theta-terms K] [--mode auto|exact|numeric]
                 [--param name=re,im ...] [--json PATH]
    ellid sweep --n-max N --trials T --seed S [--json PATH]

Exit status: 0 if every check passed, 1 on any verification failure,
2 on a configuration error.  ELLID_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import EllidError
from .harness import (DEFAULT_TOL, SampleConfig, SuiteReport, result_record,
                      run_suite, _check_tol, _sampled_check)
from .identities import (MODE_EXACT_Q, MODE_EXACT_RATIONAL, MODE_NUMERIC,
                         _exact_mode, catalog, evaluate, get_identity)
from .theta import ThetaConfig


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
        parts = val.split(",")
        re_ = float(parts[0])
        im = float(parts[1]) if len(parts) > 1 else 0.0
        return name.strip(), complex(re_, im)
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"expected name=re[,im], got {text!r}")


#: least value of each integer parameter kind
_INT_MIN = {"non-negative-integer": 0, "positive-integer": 1}


def _pinned_params(desc, fixed: dict, mode: str) -> dict:
    """Pinned values checked against the identity's signature.

    Exact mode pins every parameter but q, as integers; in numeric mode the
    integer-kind parameters (m) must be integers too, at least the least
    value of their kind.  A pinned nome p needs |p| < 1 and a pinned base q
    must be nonzero.
    """
    kinds = dict(desc.param_signature)
    unknown = [name for name in fixed if name not in kinds]
    if unknown:
        raise ValueError(f"{desc.id} has no parameter {', '.join(unknown)} "
                         f"(its parameters: {' '.join(kinds) or 'none'})")
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
              or v.real < _INT_MIN.get(kind, -math.inf)):
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
    v.add_argument("--theta-terms", type=int, default=64)
    v.add_argument("--mode", choices=["auto", "exact", "numeric"], default="auto")
    v.add_argument("--param", action="append", type=_parse_param, default=[],
                   metavar="name=re,im")
    v.add_argument("--json", dest="json_path", default=None)

    s = sub.add_parser("sweep", help="verify the whole catalog")
    s.add_argument("--n-max", type=int, default=6)
    s.add_argument("--trials", type=int, default=10)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--theta-terms", type=int, default=64)
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
    theta_cfg = ThetaConfig(max_terms=args.theta_terms)
    cfg = SampleConfig(seed=seed, trials=args.trials)

    if args.mode == "exact":
        mode = _exact_mode(desc)
    elif args.mode == "numeric":
        mode = MODE_NUMERIC
    else:
        mode = "auto"
    fixed = _pinned_params(desc, dict(args.param), mode)

    t0 = time.monotonic()
    records = []
    if mode in (MODE_EXACT_Q, MODE_EXACT_RATIONAL):
        res = evaluate(desc, fixed, args.n, mode, theta_cfg, args.tol)
        records.append(result_record(res))
    else:
        for trial in range(args.trials):
            res = _sampled_check(desc, cfg, trial, args.n, theta_cfg, args.tol,
                                 fixed)
            records.append(result_record(res))

    report = SuiteReport(config={"sample": cfg.to_dict(), "tol": args.tol,
                                 "n": args.n, "id": desc.id, "mode": args.mode,
                                 "theta": {"max_terms": theta_cfg.max_terms,
                                           "tail_tol": theta_cfg.tail_tol}},
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
    theta_cfg = ThetaConfig(max_terms=args.theta_terms)
    cfg = SampleConfig(seed=seed, trials=args.trials)
    ids = [d.id for d in catalog()]
    report = run_suite(ids, args.n_max, cfg, args.tol, theta_cfg,
                       include_edges=True)
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
