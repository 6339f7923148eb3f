"""tools/same_report.py: equal reports apart from `timings`, or every difference."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_report.py"
_spec = importlib.util.spec_from_file_location("same_report", TOOL)
same_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_report)


def _report(**changes) -> dict:
    rec = {"id": "geo", "mode": "numeric-elliptic", "n": 2, "trial": 1,
           "lhs": [1.5, 0.25], "rhs": [1.5, 0.25], "abs_err": 0.0,
           "rel_err": 0.0, "pass": True, "params": {"q": [0.5, 0.25]}}
    report = {"config": {"sample": {"seed": 3}, "tol": 1e-8},
              "results": [dict(rec, trial=0), rec],
              "summary": {"geo": {"trials": 2, "failures": 0, "max_rel_err": 0.0}},
              "timings": {"total_seconds": 0.5}}
    report.update(changes)
    return report


@pytest.fixture
def compare(tmp_path, capsys):
    """Write two reports and run the tool on them: (exit status, stdout)."""

    def run(a: dict, b: dict):
        paths = []
        for name, report in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(json.dumps(report, indent=1))
            paths.append(str(path))
        code = same_report.main(paths)
        return code, capsys.readouterr().out

    return run


def test_equal_reports(compare):
    assert compare(_report(), _report()) == (0, "")


def test_only_timings_differ(compare):
    assert compare(_report(), _report(timings={"total_seconds": 9.0})) == (0, "")


def test_one_record_differs(compare):
    other = _report()
    other["results"][1] = dict(other["results"][1], rhs=[1.5, 0.3])
    code, out = compare(_report(), other)
    assert code == 1
    assert out == ("record ('geo', 'numeric-elliptic', 2, 1) differs in rhs\n"
                   "differences: 1\n")


def test_every_differing_record_is_listed(compare):
    other = _report()
    other["results"][0] = dict(other["results"][0], params={})
    other["results"][1] = {**other["results"][1], "rel_err": 1e-3, "pass": False}
    code, out = compare(_report(), other)
    assert code == 1
    assert out.splitlines() == [
        "record ('geo', 'numeric-elliptic', 2, 0) differs in params",
        "record ('geo', 'numeric-elliptic', 2, 1) differs in rel_err, pass",
        "differences: 2"]


def test_config_differs(compare):
    code, out = compare(_report(), _report(config={"sample": {"seed": 4}, "tol": 1e-8}))
    assert code == 1
    assert out == "'config' differs\ndifferences: 1\n"
