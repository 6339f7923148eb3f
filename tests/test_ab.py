"""tools/ab.py: the statistics of a paired A/B run, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_sign_test_p():
    assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert ab.sign_test_p(0, 10) == ab.sign_test_p(10, 0)
    assert ab.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test_p(5, 5) == 1.0
    assert ab.sign_test_p(0, 0) == 1.0


def test_quartiles():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0)


def test_compare_lower_is_better():
    base = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    head = [0.6, 0.7, 0.5, 0.7, 0.6, 0.6, 0.8, 0.5, 0.6, 1.0]  # last pair a tie
    c = ab.compare(base, head, "lower")
    assert c["ratios"][0] == pytest.approx(0.6) and c["ratios"][-1] == 1.0
    assert (c["head_wins"], c["head_losses"]) == (9, 0)
    assert c["sign_p"] == pytest.approx(2 / 512)
    assert c["base_median"] == 1.0 and c["head_median"] == 0.6
    assert c["base_quartiles"] == pytest.approx([0.925, 1.075])
    assert c["base_drift"] == 1.0
    assert c["gain"]  # 9 of 10 wins, and 0.4 > the base IQR of 0.15


def test_compare_needs_the_quartile_rule_and_nine_tenths():
    base = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    head = [b * 0.9 for b in base]
    c = ab.compare(base, head, "lower")
    assert c["head_wins"] == 10 and not c["gain"]  # 0.15 < IQR 1.0
    c = ab.compare([100.0] * 10, [101.0] * 8 + [99.0] * 2, "higher")
    assert (c["head_wins"], c["head_losses"]) == (8, 2) and not c["gain"]
    assert c["median_ratio"] == pytest.approx(1.01)


def test_count_differences_on_fixed_layers():
    names = ("theta.calls", "scaled.mul.calls", "harness.report.bytes")
    base = {"theta.calls": 12657, "scaled.mul.calls": 210000,
            "harness.report.bytes": 0, "theta.us_per_call": 18.8}
    same = dict(base, **{"theta.us_per_call": 12.1})  # a time may move
    assert ab.count_differences(base, same, names) == []
    moved = dict(same, **{"scaled.mul.calls": 210001})
    assert ab.count_differences(base, moved, names) == [
        "scaled.mul.calls: base 210000, head 210001"]
    assert ab.count_differences(base, {}, names[:1]) == ["theta.calls: base 12657, head None"]


def test_deterministic_names_come_from_the_checkout():
    names = ab.deterministic_names(str(TOOL.parent.parent))
    assert {"theta.calls", "scaled.mul.calls", "scaled.add.calls",
            "scaled.ipow.calls"} <= set(names)
    assert "theta.us_per_call" not in names
