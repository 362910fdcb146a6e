"""Timing harness: record shapes, query-count invariants, scaling trends."""

import random

import pytest

from pairsub import (
    CardinalityTooLarge,
    GridMismatch,
    InvalidArgument,
    QueryCounts,
    SetFunctionOracle,
)
from pairsub import bench
from pairsub.bench import (
    CSV_HEADER,
    TimingRecord,
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

    def test_each_trial_records_its_own_elapsed_time(self, small_city, monkeypatch):
        # a clock read at the start and end of each of three trials
        ticks = iter([100.0, 100.5, 200.0, 200.25, 300.0, 301.0])
        monkeypatch.setattr(bench, "time", type("Clock", (), {
            "perf_counter": staticmethod(lambda: next(ticks))}))
        record = time_algorithm("optimistic", small_city, 3, trials=3)
        assert (record.min_seconds, record.mean_seconds, record.max_seconds) == (
            0.25, 1.75 / 3, 1.0)

    def test_trials_must_be_positive(self, small_city):
        with pytest.raises(ValueError):
            time_algorithm("optimistic", small_city, 3, trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_int_trials_are_refused_before_the_warm_up(self, trials):
        calls = []
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InvalidArgument) as raised:
            time_algorithm("optimistic", oracle, 2, trials)
        assert (type(raised.value), str(raised.value), calls) == (
            InvalidArgument, f"trials must be an integer, got {trials!r}", [])

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

    @pytest.mark.parametrize("trials", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_int_trials_are_refused_before_any_run(self, trials):
        calls = []
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InvalidArgument, match="^trials must be an integer, got "):
            scaling_sweep(["full", "optimistic"], oracle, [1, 2], trials)
        assert calls == []

    def test_every_cardinality_is_checked_before_any_run(self):
        calls = []
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(CardinalityTooLarge, match="cardinality 9"):
            scaling_sweep(["full"], oracle, [1, 2, 9], 1)
        assert calls == []

    @pytest.mark.parametrize(("algorithms", "k", "message"), [
        (["full", "greedy"], None, "unknown algorithm 'greedy'"),
        (["full", "optimistic"], 3, "k applies to k_wise_optimistic only"),
        (["optimistic", "k_wise_optimistic"], None, "k_wise_optimistic requires k"),
        (["k_wise_optimistic"], 1, "k must be >= 2"),
        ([], None, "nothing to time"),
        (["full", "optimistic", "optimistic"], None, "algorithm 'optimistic' is listed twice"),
    ], ids=["unknown", "k_without_k_wise", "k_wise_without_k", "k_below_two", "empty",
            "repeated"])
    def test_strategies_are_checked_before_any_timing(self, monkeypatch, algorithms, k,
                                                      message):
        timed = []
        monkeypatch.setattr(bench, "time_algorithm", lambda *args, **kw: timed.append(args))
        oracle = SetFunctionOracle(3, lambda s: float(len(s)))
        with pytest.raises(InvalidArgument, match=message):
            scaling_sweep(algorithms, oracle, [1, 2], 1, k=k)
        assert timed == []

    @pytest.mark.parametrize("algorithm", ["optimistic", "pessimistic"])
    def test_pairwise_work_units_follow_the_exact_law(self, algorithm):
        """Work units (deterministic cost proxy) of a pairwise run: m
        singletons, then one pair column over the m - i remaining candidates
        after each pick i < n, at two units a pair."""
        oracle = city_oracle(seed=9, count=210)
        m, n_values = oracle.ground_size, [4, 8, 12, 16, 20]
        records = scaling_sweep([algorithm], oracle, n_values, 1)
        assert [(r.algorithm, r.m, r.n) for r in records] == [(algorithm, m, n) for n in n_values]
        assert [r.query_counts.work_units for r in records] == [
            m + 2 * sum(m - i for i in range(1, n)) for n in n_values]

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

    def test_ratio_divides_minima_not_means(self):
        def record(algorithm, n, mean, low):
            return TimingRecord(algorithm, 50, n, 5, mean, low, 2 * mean, QueryCounts())

        # one preempted pairwise trial at n = 4 lifts its mean tenfold
        full = [record("full", 4, 0.010, 0.008), record("full", 8, 0.030, 0.024)]
        pairwise = [record("optimistic", 4, 0.011, 0.001),
                    record("optimistic", 8, 0.002, 0.002)]
        assert speedup_ratios(full, pairwise) == [(4, 0.008 / 0.001), (8, 0.024 / 0.002)]

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
