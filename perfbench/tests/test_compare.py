"""The parent-versus-change verdict rule."""

from perfbench.compare import verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread():
    faster = [v * 1.05 for v in BASE]
    assert verdict(BASE, faster, "higher", 0.1) == (10, "gain")
    assert verdict(BASE, [v * 0.95 for v in BASE], "lower", 0.1) == \
        (10, "gain")


def test_regression_beyond_the_bound():
    slower = [v * 0.8 for v in BASE]
    assert verdict(BASE, slower, "higher", 0.1) == (0, "regression")


def test_same_within_the_noise():
    assert verdict(BASE, list(reversed(BASE)), "higher", 0.1)[1] == "same"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
             100.0]
    assert verdict(noisy, list(reversed(noisy)), "higher", 0.1)[1] == \
        "unresolved"
