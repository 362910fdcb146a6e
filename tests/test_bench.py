"""Timing harness: record shapes, query-count invariants, scaling trends."""

import random

import pytest

from pairsub import GridMismatch
from pairsub.bench import (
    CSV_HEADER,
    records_to_csv,
    scaling_sweep,
    speedup_ratios,
    time_algorithm,
)

from _synth import city_oracle, random_soc_oracle


@pytest.fixture(scope="module")
def small_city():
    return city_oracle(seed=3, count=60)


class TestTimeAlgorithm:
    def test_single_trial_collapses_stats(self, small_city):
        record = time_algorithm("optimistic", small_city, 5, trials=1)
        assert record.min_seconds == record.mean_seconds == record.max_seconds
        assert record.m == 60 and record.n == 5 and record.trials == 1

    def test_multi_trial_ordering(self, small_city):
        record = time_algorithm("uninformed", small_city, 4, trials=5)
        assert record.min_seconds <= record.mean_seconds <= record.max_seconds
        assert record.trials == 5

    def test_trials_must_be_positive(self, small_city):
        with pytest.raises(ValueError):
            time_algorithm("optimistic", small_city, 3, trials=0)

    def test_optimistic_query_bound(self, small_city):
        record = time_algorithm("optimistic", small_city, 7, trials=1)
        q = record.query_counts
        assert q.other == 0
        assert q.size1 + q.size2 <= 60 * (7 + 1)


class TestScalingSweep:
    def test_row_count(self, small_city):
        records = scaling_sweep(
            ["uninformed", "optimistic", "pessimistic"], small_city, [2, 4, 6, 8], 1
        )
        assert len(records) == 12

    def test_requires_ascending_grid(self, small_city):
        with pytest.raises(ValueError):
            scaling_sweep(["optimistic"], small_city, [4, 2], 1)

    def test_pairwise_work_units_fit_linear_trend(self):
        """Work units (deterministic cost proxy) grow linearly in n for the
        pairwise strategies; R^2 of a straight-line fit stays above 0.95."""
        import numpy as np

        oracle = city_oracle(seed=9, count=210)
        n_values = [4, 8, 12, 16, 20]
        records = scaling_sweep(["optimistic"], oracle, n_values, 1)
        work = np.array([r.query_counts.work_units for r in records], dtype=float)
        ns = np.array(n_values, dtype=float)
        slope, intercept = np.polyfit(ns, work, 1)
        predicted = slope * ns + intercept
        ss_res = float(((work - predicted) ** 2).sum())
        ss_tot = float(((work - work.mean()) ** 2).sum())
        assert 1.0 - ss_res / ss_tot >= 0.95

    def test_full_greedy_work_grows_superlinearly(self):
        oracle = city_oracle(seed=9, count=80)
        records = scaling_sweep(["full"], oracle, [4, 8, 16], 1)
        w4, w8, w16 = [r.query_counts.work_units for r in records]
        # quadratic-dominated growth: doubling n more than doubles the work
        assert w8 > 2.0 * w4
        assert w16 > 2.0 * w8


class TestSpeedupRatios:
    def test_identical_timings_give_one(self, small_city):
        records = scaling_sweep(["optimistic"], small_city, [2, 4], 1)
        ratios = speedup_ratios(records, records)
        assert ratios == [(2, 1.0), (4, 1.0)]

    def test_grid_mismatch(self, small_city):
        a = scaling_sweep(["optimistic"], small_city, [2, 4], 1)
        b = scaling_sweep(["optimistic"], small_city, [2, 6], 1)
        with pytest.raises(GridMismatch):
            speedup_ratios(a, b)

    def test_work_unit_ratio_increases_with_n(self):
        oracle = city_oracle(seed=12, count=120)
        n_values = [3, 6, 9, 12]
        full = scaling_sweep(["full"], oracle, n_values, 1)
        pairwise = scaling_sweep(["pessimistic"], oracle, n_values, 1)
        ratios = [
            f.query_counts.work_units / p.query_counts.work_units
            for f, p in zip(full, pairwise)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestCsvOutput:
    def test_header_and_rows(self, small_city):
        records = scaling_sweep(["uninformed", "optimistic"], small_city, [2, 3], 1)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "uninformed"
        assert int(first[1]) == 60 and int(first[2]) == 2


def test_errors_propagate_from_algorithm():
    rng = random.Random(0)
    oracle = random_soc_oracle(rng, 5)
    from pairsub import CardinalityTooLarge

    with pytest.raises(CardinalityTooLarge):
        time_algorithm("full", oracle, 9, trials=1)
