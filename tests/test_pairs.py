import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

_BETTER = {"wall_s": "lower", "pass_frac": "higher"}


def _runs(walls, passes):
    return [{"w": {"wall_s": wall, "pass_frac": frac}}
            for wall, frac in zip(walls, passes)]


def test_summary_of_synthetic_pairs():
    """Medians, the parent's inclusive IQR, the pairs won in each metric's
    direction (ties count for neither side) and the relative change."""
    parent = _runs([1.0, 1.2, 1.1, 1.4, 1.3], [0.5, 0.5, 1.0, 0.5, 0.5])
    change = _runs([0.9, 1.3, 1.0, 1.0, 1.0], [1.0, 0.5, 0.5, 0.5, 1.0])
    block = pairs.summarize(parent, change, _BETTER)
    wall, frac = block["w"]["wall_s"], block["w"]["pass_frac"]
    assert wall["parent"] == [1.0, 1.2, 1.1, 1.4, 1.3]
    assert (wall["parent_median"], wall["change_median"]) == (1.2, 1.0)
    # inclusive quartiles of 1.0 ... 1.4 are 1.1 and 1.3
    assert wall["parent_iqr"] == pytest.approx(0.2, abs=1e-15)
    assert wall["change_wins"] == 4
    assert wall["rel_change"] == pytest.approx(1.0 / 1.2 - 1.0, abs=1e-15)
    assert frac["better"] == "higher"
    assert frac["change_wins"] == 2            # pairs 0 and 4; 2 is lost
    assert (frac["parent_median"], frac["parent_iqr"]) == (0.5, 0.0)
    assert statistics.median(frac["change"]) == frac["change_median"]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr():
    parent = _runs([1.0] * 5 + [1.1] * 5, [1.0] * 10)
    won_all = _runs([0.5] * 10, [1.0] * 10)
    lost_one = _runs([0.5] * 8 + [1.2] * 2, [1.0] * 10)
    inside_iqr = _runs([0.99] * 10, [1.0] * 10)
    got = [pairs.claim(pairs.summarize(parent, change, _BETTER), "w",
                       "wall_s")
           for change in (won_all, lost_one, inside_iqr)]
    assert [c["change_wins"] for c in got] == [10, 8, 10]
    assert [c["met"] for c in got] == [True, False, False]
    assert got[0] == {"workload": "w", "metric": "wall_s",
                      "parent_median": 1.05, "change_median": 0.5,
                      "parent_iqr": pytest.approx(0.1, abs=1e-15),
                      "change_wins": 10, "pairs": 10, "met": True}
    # a metric whose median is 0 at the parent has no relative change
    zero = pairs.summarize(_runs([0.0, 0.0], [1.0, 1.0]),
                           _runs([0.0, 0.0], [1.0, 1.0]), _BETTER)
    assert zero["w"]["wall_s"]["rel_change"] is None
