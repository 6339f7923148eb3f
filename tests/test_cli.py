import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellid.harness
from ellid.cli import main
from ellid.harness import DEFAULT_TOL, SampleConfig, result_record, sample_params
from ellid.identities import MODE_NUMERIC, evaluate


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bigid" in out and "m00" in out and "warnaar-cubes" in out


def test_verify_numeric(capsys):
    assert main(["verify", "--id", "tel-c", "--n", "3", "--trials", "5",
                 "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_exact(capsys):
    assert main(["verify", "--id", "warnaar-cubes", "--n", "10",
                 "--mode", "exact"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_pinned_param(capsys):
    assert main(["verify", "--id", "qodds", "--n", "4", "--trials", "3",
                 "--param", "q=0.5,0.1"]) == 0


def test_verify_json_output(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["verify", "--id", "geo", "--n", "4", "--trials", "3",
                 "--seed", "2", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["summary"]["geo"]["failures"] == 0
    assert len(data["results"]) == 3


def test_unknown_identity_exits_2(capsys):
    assert main(["verify", "--id", "nope", "--n", "1"]) == 2


def test_bad_flags_exit_2(capsys):
    assert main(["verify", "--id", "geo"]) == 2          # missing --n
    assert main(["verify", "--id", "geo", "--n", "1",
                 "--param", "oops"]) == 2                 # malformed param
    assert main(["verify", "--id", "qodds", "--n", "3", "--trials", "2",
                 "--param", "q=0.4,0.2,9"]) == 2          # a third component
    assert main(["sweep", "--suite", "all"]) == 2          # no such flag
    assert main(["verify", "--id", "geo", "--n", "1",
                 "--theta-terms", "64"]) == 2             # no such flag
    assert main(["sweep", "--theta-terms", "64"]) == 2     # no such flag
    assert main(["verify", "--id", "geo", "--n", "1",
                 "--mode", "numeric"]) == 2               # no such mode


def test_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("ELLID_SEED", "17")
    path_a = None
    assert main(["verify", "--id", "tel-c-a", "--n", "2", "--trials", "2"]) == 0
    out_env = capsys.readouterr().out
    assert main(["verify", "--id", "tel-c-a", "--n", "2", "--trials", "2",
                 "--seed", "17"]) == 0
    out_flag = capsys.readouterr().out
    assert out_env == out_flag


def test_env_seed_invalid_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ELLID_SEED", "x")
    assert main(["verify", "--id", "geo", "--n", "2", "--trials", "1"]) == 2
    assert "error: ELLID_SEED" in capsys.readouterr().err


def test_verify_exact_rejects_non_integer_param(capsys):
    for value in ("1.5,0", "1,2"):
        assert main(["verify", "--id", "spc-2", "--n", "4", "--mode", "exact",
                     "--param", f"c={value}", "--param", "d=1",
                     "--param", "g=1", "--param", "h=2"]) == 2
        assert "error: exact mode needs integer parameters" in capsys.readouterr().err
    assert main(["verify", "--id", "spc-2", "--n", "4", "--mode", "exact",
                 "--param", "c=1", "--param", "d=1",
                 "--param", "g=1", "--param", "h=2"]) == 0


def test_verify_json_equals_two_step_checks(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["verify", "--id", "tel-c", "--n", "3", "--trials", "4",
                 "--seed", "5", "--param", "a=0.3,0.2", "--json", str(path)]) == 0
    results = json.loads(path.read_text())["results"]
    cfg = SampleConfig(seed=5, trials=4)
    ref = []
    for trial in range(4):
        prm = sample_params("tel-c", cfg, trial, 3, fixed={"a": 0.3 + 0.2j})
        assert prm["a"] == 0.3 + 0.2j
        ref.append(result_record(evaluate("tel-c", prm, 3, MODE_NUMERIC,
                                          DEFAULT_TOL, trial)))
    assert results == json.loads(json.dumps(ref))


def test_sweep_small(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code = main(["sweep", "--n-max", "1", "--trials", "1",
                 "--seed", "3", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0, out
    data = json.loads(path.read_text())
    assert data["config"]["sample"]["seed"] == 3
    assert all(r["pass"] for r in data["results"])
    # edges are part of the sweep
    assert any("->" in r["id"] for r in data["results"])


@pytest.mark.parametrize("argv, message", [
    (["--id", "geo", "--n", "3", "--param", "zz=1"], "geo has no parameter zz"),
    (["--id", "spc-2", "--n", "4", "--mode", "exact"], "missing c, d, g, h"),
    (["--id", "spc-2", "--n", "4", "--mode", "exact", "--param", "c=1",
      "--param", "d=1", "--param", "g=1"], "missing h"),
    (["--id", "geo", "--n", "3", "--mode", "exact", "--param", "q=2"],
     "q is the indeterminate"),
    (["--id", "tel-a", "--n", "2", "--param", "m=1.5"],
     "needs m of kind non-negative-integer"),
    (["--id", "tel-b", "--n", "2", "--param", "m=-1"],
     "needs m of kind positive-integer"),
    (["--id", "ft-indef", "--n", "3", "--trials", "3", "--param", "p=1.5"],
     "needs |p| < 1"),
    (["--id", "basic-g", "--n", "3", "--param", "p=1.5"], "needs |p| < 1"),
    (["--id", "tel-c", "--n", "3", "--param", "q=0"], "q must be nonzero"),
    (["--id", "tel-c", "--n", "3", "--param", "b=0"],
     "a and b must be nonzero when p != 0"),
    (["--id", "tel-b", "--n", "3", "--param", "m=0"],
     "needs m of kind positive-integer"),
    (["--id", "tel-c-ab", "--n", "3", "--param", "b=0"], "b must be nonzero"),
    (["--id", "tel-c", "--n", "3", "--mode", "exact"], "tel-c has no exact mode"),
    (["--id", "tel-c", "--n", "3", "--param", "p=0.95"],
     "pinned p=(0.95+0j) is too close to the unit circle: theta at |a| = 0.957, "
     "|p| = 0.95 needs J = 714 > MAX_TERMS = 512"),
    (["--id", "indef-1", "--n", "3", "--param", "b=0"],
     "pinned b=0j rejects every draw: no admissible draw for indef-1 (n=3, trial=0) "
     "within 1000 resamples"),
    (["--id", "m00", "--n", "3", "--param", "d=0"],
     "pinned d=0j rejects every draw"),
    # a zero theta argument: theta(a; p) and theta(c p; p^2) at p != 0
    (["--id", "m00", "--n", "3", "--param", "a=0"],
     "pinned a=0j rejects every draw: no admissible draw for m00 (n=3, trial=0)"),
    (["--id", "e-indef-1", "--n", "3", "--param", "c=0"],
     "pinned c=0j rejects every draw: no admissible draw for e-indef-1"),
    (["--id", "qodds", "--n", "3", "--param", "q=nan"],
     "pinned values must be finite, got q=(nan+0j)"),
    (["--id", "qodds", "--n", "3", "--param", "q=inf"],
     "pinned values must be finite, got q=(inf+0j)"),
    (["--id", "tel-c", "--n", "3", "--param", "a=nan"],
     "pinned values must be finite, got a=(nan+0j)"),
    # exact mode: c h + d g = 0 is a pole, found by the exact evaluation
    (["--id", "spc-2", "--n", "3", "--mode", "exact", "--param", "c=1",
      "--param", "d=1", "--param", "g=0", "--param", "h=0"],
     "pinned c=1 d=1 g=0 h=0 is a pole of spc-2: [0]_q denominator"),
])
def test_verify_pinned_params_checked_against_signature(argv, message, capsys):
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_verify_wide_pinned_nome(capsys):
    # |p| = 0.7 needs up to 98 theta terms, within theta.MAX_TERMS
    assert main(["verify", "--id", "tel-c", "--n", "3", "--param", "p=0.7"]) == 0
    assert "PASS" in capsys.readouterr().out
    # e-indef-1's nome is p^2, so p = 0.95 (nome 0.9025) still fits
    assert main(["verify", "--id", "e-indef-1", "--n", "3", "--trials", "3",
                 "--param", "p=0.95"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_pinned_integer_param(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["verify", "--id", "tel-a", "--n", "2", "--trials", "2",
                 "--param", "m=2", "--json", str(path)]) == 0
    results = json.loads(path.read_text())["results"]
    assert [r["params"]["m"] for r in results] == [[2.0, 0.0], [2.0, 0.0]]


def test_n_below_range_exits_2_before_any_draw(monkeypatch, capsys):
    def no_draws(*args, **kw):
        raise AssertionError("a check was drawn")

    monkeypatch.setattr(ellid.harness, "_first_admissible", no_draws)
    assert main(["verify", "--id", "geo", "--n", "-1"]) == 2
    assert "error: geo needs n >= 0, got -1" in capsys.readouterr().err
    assert main(["verify", "--id", "warnaar-cubes-elliptic", "--n", "0"]) == 2
    assert "needs n >= 1" in capsys.readouterr().err
    assert main(["verify", "--id", "geo", "--n", "-1", "--mode", "exact"]) == 2
    assert "error: geo needs n >= 0" in capsys.readouterr().err
    assert main(["sweep", "--n-max", "-1"]) == 2
    assert "error: n_max must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--id", "tel-c", "--n", "3", "--trials", "2"],
                                     ["sweep"]])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "1e300", "inf"])
def test_bad_tol_exits_2_before_any_draw(command, tol, monkeypatch, capsys):
    def no_draws(*args, **kw):
        raise AssertionError("a check was drawn")

    monkeypatch.setattr(ellid.harness, "_first_admissible", no_draws)
    assert main([*command, "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: tol must lie in (0, 1)")


def test_import_stays_lean():
    # in a fresh interpreter: a heavy import would show in every command's start-up
    heavy = ("mpmath", "numpy", "sympy", "hypothesis")
    code = f"import sys, ellid; print([m for m in {heavy} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
