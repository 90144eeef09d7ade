import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# ten parent job times: quartiles 0.62125 and 0.63875, IQR 0.0175
PARENT = [0.62, 0.63, 0.64, 0.61, 0.635, 0.625, 0.64, 0.62, 0.63, 0.65]


def test_nine_wins_and_a_gap_past_the_iqr_is_a_gain():
    change = [p - 0.04 for p in PARENT]
    change[3] = 0.7  # one lost pair is allowed
    v = pairs.verdict(PARENT, change)
    assert (v["wins"], v["pairs"]) == (9, 10)
    assert v["parent_iqr"] == pytest.approx(0.0175)
    assert v["parent_median"] == pytest.approx(0.63)
    assert v["gain"]


def test_eight_wins_is_no_gain():
    change = [p - 0.04 for p in PARENT]
    change[3] = change[5] = 0.7
    assert pairs.verdict(PARENT, change)["wins"] == 8
    assert not pairs.verdict(PARENT, change)["gain"]


def test_ties_count_for_neither_side():
    change = [p - 0.04 for p in PARENT]
    change[0] = PARENT[0]
    v = pairs.verdict(PARENT, change)
    assert v["wins"] == 9 and v["gain"]
    change[1] = PARENT[1]
    assert pairs.verdict(PARENT, change)["wins"] == 8


def test_every_pair_won_inside_the_iqr_is_no_gain():
    v = pairs.verdict(PARENT, [p - 0.01 for p in PARENT])
    assert v["wins"] == 10
    assert not v["gain"]  # 0.01 apart, IQR 0.0175


def test_higher_is_better_flips_the_wins():
    faster = [p + 0.04 for p in PARENT]
    assert pairs.verdict(PARENT, faster, better="higher")["gain"]
    assert pairs.verdict(PARENT, faster, better="lower")["wins"] == 0
