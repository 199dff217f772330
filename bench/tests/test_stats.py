"""Percentiles, the samples-beyond rule, bounds and compare verdicts."""

import pytest

from bench.sets import judge
from bench.stats import (
    Metric,
    beyond,
    percentile,
    rank,
    reportable,
    spread,
    verdict,
)

LATENCY = Metric("latency_p50_ms", "ms", "lower", bound=0.10, floor=0.01)
THROUGHPUT = Metric("throughput_ops_s", "ops/s", "higher", bound=0.10)


def test_nearest_rank_takes_the_smallest_rank_covering_the_share():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    # five samples: the median is the 3rd, not the 2nd (no banker's rounding)
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([7.0], 99) == 7.0


def test_rank_is_exact_where_floating_point_is_not():
    # 7 / 100 * 100 == 7.000000000000001 in floating point; the rank is 7.
    assert rank(7, 100) == 7
    assert rank(90, 110) == 99
    assert rank(99, 1000) == 990
    assert rank(50, 1) == 1
    with pytest.raises(ValueError):
        rank(50, 0)
    with pytest.raises(ValueError):
        rank(0, 10)


def test_percentiles_need_ten_samples_beyond_them():
    assert beyond(90, 100) == 10
    assert reportable((50, 90, 99), 100) == [50, 90]
    assert reportable((50, 90, 99), 99) == [50]  # p90 has only 9 beyond
    assert reportable((50, 90, 99), 1000) == [50, 90, 99]
    assert reportable((50, 90, 99), 999) == [50, 90]
    assert reportable((50,), 0) == []


def test_a_regression_must_exceed_both_the_share_and_the_floor():
    assert not LATENCY.regressed(1.0, 1.09)
    assert LATENCY.regressed(1.0, 1.11)
    assert not LATENCY.regressed(1.0, 0.5)  # faster is never a regression
    # 40% worse, but by 0.008 ms: under the floor, so noise
    assert not LATENCY.regressed(0.02, 0.028)
    assert LATENCY.regressed(0.02, 0.04)
    # higher is better: a drop regresses, a rise does not
    assert THROUGHPUT.regressed(100.0, 89.0)
    assert not THROUGHPUT.regressed(100.0, 91.0)
    assert not THROUGHPUT.regressed(100.0, 150.0)
    with pytest.raises(ValueError):
        Metric("x", "ms", "sideways")


def test_spread_is_the_interquartile_distance_over_the_median():
    assert spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]  # quartiles 2.75 and 8.25
    assert spread(values) == pytest.approx(5.5 / 5.5)


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_a_gain_needs_nine_in_ten_pairs_and_a_median_beyond_the_spread():
    faster = [value * 0.8 for value in BASE]
    assert verdict(LATENCY, BASE, faster)["verdict"] == "improved"
    # nine wins of ten is enough
    nine = faster[:9] + [BASE[9] + 1.0]
    row = verdict(LATENCY, BASE, nine)
    assert (row["wins"], row["verdict"]) == (9, "improved")
    # eight is not
    eight = faster[:8] + [BASE[8] + 1.0, BASE[9] + 1.0]
    assert verdict(LATENCY, BASE, eight)["verdict"] == "unchanged"
    # every pair won, but by less than the base runs' own spread
    barely = [value - 0.01 for value in BASE]
    assert verdict(LATENCY, BASE, barely)["verdict"] == "unchanged"


def test_a_gain_under_the_floor_is_noise():
    memory = Metric("peak_rss_mb", "MB", "lower", bound=0.10, floor=2.0)
    base = [43.9 + 0.01 * index for index in range(10)]
    assert verdict(memory, base, [value - 0.6 for value in base])["verdict"] == "unchanged"
    assert verdict(memory, base, [value - 3.0 for value in base])["verdict"] == "improved"


def test_regressed_unchanged_and_unresolved_verdicts():
    slower = [value * 1.2 for value in BASE]
    assert verdict(LATENCY, BASE, slower)["verdict"] == "regressed"
    assert verdict(THROUGHPUT, BASE, slower)["verdict"] == "improved"
    assert verdict(LATENCY, BASE, list(reversed(BASE)))["verdict"] == "unchanged"
    noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert verdict(LATENCY, noisy, noisy[1:] + noisy[:1])["verdict"] == "unresolved"
    # too few pairs to judge at all
    assert verdict(LATENCY, BASE[:5], slower[:5])["verdict"] == "unresolved"
    with pytest.raises(ValueError):
        verdict(LATENCY, BASE, BASE[:9])


def _run(workload, seed, **metrics):
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in metrics.items()},
    }


def test_judge_pairs_runs_by_seed_per_workload():
    base = [_run("calc_rw", seed, latency_p50_ms=BASE[seed]) for seed in range(10)]
    change = [
        _run("calc_rw", seed, latency_p50_ms=BASE[seed] * 0.8) for seed in reversed(range(10))
    ]
    (row,) = judge(base, change)
    assert (row["workload"], row["metric"], row["verdict"]) == (
        "calc_rw",
        "latency_p50_ms",
        "improved",
    )
    assert row["wins"] == 10
