"""The benchmark's per-layer tracer still fits the package.

perfbench/tracing.py patches ellid functions by identity and reads num/wt
from the __dict__ of each context class, so renaming a traced function or
inheriting num/wt breaks traced benchmark runs.  This loads the tracer from
its file and runs one small traced suite.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import ellid.cli  # noqa: F401  (the tracer patches every ellid module, cli included)
import ellid.harness
from ellid.harness import SampleConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every name bound in an ellid module or in a class defined there."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "ellid" and not modname.startswith("ellid."):
            continue
        for key, val in vars(mod).items():
            out[(modname, key)] = val
            if inspect.isclass(val) and val.__module__ == modname:
                for attr, v in vars(val).items():
                    out[(modname, key, attr)] = v
    return out


def test_tracer_patches_and_restores_the_package():
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        rep = ellid.harness.run_suite(["tel-c", "tel-c-ab", "geo"], 1,
                                      SampleConfig(seed=1, trials=1))
        m = tracer.job_metrics(len(rep.results))
    finally:
        tracer.restore()
    assert rep.all_passed
    for layer in ("theta.calls", "elliptic.full.calls", "elliptic.closed.calls",
                  "qexact.mul.calls"):
        assert m[layer] > 0, layer
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
