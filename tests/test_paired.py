"""``tools/paired.py`` summarises paired benchmark runs.

Per seed it reports each pair's relative change, the pairs where the change
read lower, both medians, the base's interquartile range and the A/A copy's
median. Over every seed, a metric is unresolved when an A/A pair moved by
more than its bound, worse when the median paired change exceeds the bound
in the wrong direction, and within otherwise; its A/A median change is
reported beside them.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired", ROOT / "tools" / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def test_summary_of_one_seed():
    x = paired.summary([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 4.0, 3.0], [1.0, 2.5, 3.0, 4.0])
    assert x["pair_changes"] == [-0.5, 0.0, pytest.approx(1 / 3), -0.25]
    assert (x["lower"], x["pairs"]) == (2, 4)
    assert (x["base_median"], x["change_median"]) == (2.5, 2.5)
    assert x["base_iqr"] == pytest.approx(2.5)  # quartiles 1.25 and 3.75
    assert x["aa_median"] == 2.75
    assert x["aa_pair_changes"] == [0.0, 0.25, 0.0, 0.0]


def test_summary_of_one_round():
    x = paired.summary([2.0], [1.0], [3.0])
    assert (x["base_iqr"], x["aa_median"], x["lower"]) == (0.0, 3.0, 1)


def _seed(pairs, aa):
    return {"pair_changes": pairs, "aa_pair_changes": aa}


@pytest.mark.parametrize(
    "seeds, bound, lower_better, word",
    [
        ({"1": _seed([0.01, 0.02], [0.01, -0.02])}, 0.1, True, "within"),
        ({"1": _seed([0.2, 0.3], [0.01]), "2": _seed([0.25], [0.02])}, 0.1, True, "worse"),
        ({"1": _seed([-0.2, -0.3, -0.25], [0.01])}, 0.1, False, "worse"),  # higher is better
        ({"1": _seed([-0.2, -0.3, -0.25], [0.01])}, 0.1, True, "within"),  # a gain
        ({"1": _seed([0.0], [0.05]), "2": _seed([0.0], [-0.3])}, 0.25, True, "unresolved"),
        ({"1": _seed([0.5], [0.3])}, None, True, "no bound"),
        # an A/A set whose median is shifted past the bound, either way
        ({"1": _seed([0.0, 0.01], [0.3, 0.32]), "2": _seed([0.0], [0.28])}, 0.25, True, "unresolved"),
        ({"1": _seed([0.0], [-0.3, -0.35, -0.32])}, 0.25, False, "unresolved"),
    ],
)
def test_verdict_over_every_seed(seeds, bound, lower_better, word):
    v = paired.verdict(seeds, bound, lower_better)
    assert v["verdict"] == word
    pairs = [x for s in seeds.values() for x in s["pair_changes"]]
    aa = [x for s in seeds.values() for x in s["aa_pair_changes"]]
    assert v["median_change"] == statistics.median(pairs)
    assert v["aa_median_change"] == statistics.median(aa)
    assert v["aa_spread"] == max(abs(x) for x in aa)


def test_a_noisy_same_code_set_passes():
    # ten same-code runs per side, noisy enough that the A/A median lies
    # outside the base's quartiles; its A/A pairs scatter around 0 within
    # the bound, so the set passes
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    copy = [1.1, 0.9, 1.15, 1.05, 1.12, 0.95, 1.08, 1.06, 1.2, 0.92]
    x = paired.summary(base, base, copy)
    q1, _, q3 = statistics.quantiles(base, n=4)
    assert not q1 <= x["aa_median"] <= q3
    v = paired.verdict({"1": x}, 0.25, True)
    assert v["verdict"] == "within" and abs(v["aa_median_change"]) <= 0.25 and v["aa_spread"] <= 0.25
