"""The summary of ``scripts/bench_pairs.py`` on fixed numbers."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import compare, quartiles  # noqa: E402

PARENT = [44.44, 44.19, 44.28, 44.30, 44.25, 44.40, 44.21, 44.35, 44.27, 44.33]


def test_quartiles_interpolate_between_the_sorted_values():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_change_better_in_every_pair_and_beyond_the_spread_holds():
    c = compare(PARENT, [x - 1.7 for x in PARENT], "lower")
    assert (c["wins"], c["losses"], c["ties"]) == (10, 0, 0)
    assert c["gain"]
    assert c["parent"][1] == pytest.approx(44.29) and c["change"][1] == pytest.approx(42.59)


def test_higher_is_better_flips_the_wins():
    c = compare(PARENT, [x - 1.7 for x in PARENT], "higher")
    assert (c["wins"], c["losses"], c["gain"]) == (0, 10, False)


def test_nine_wins_of_ten_are_enough_and_eight_are_not():
    change = [x - 1.0 for x in PARENT]
    change[0] = PARENT[0] + 1.0
    assert compare(PARENT, change, "lower")["gain"]
    change[1] = PARENT[1]  # a tie counts for neither side
    c = compare(PARENT, change, "lower")
    assert (c["wins"], c["losses"], c["ties"], c["gain"]) == (8, 1, 1, False)


def test_a_gap_inside_the_parents_spread_does_not_hold():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # quartiles 3.25 and 7.75
    c = compare(parent, [x - 4.0 for x in parent], "lower")
    assert c["wins"] == 10 and not c["gain"]
    assert compare(parent, [x - 4.6 for x in parent], "lower")["gain"]
