"""Core oracle, budget, and marginal-estimate behavior."""

import math
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    BudgetExceeded,
    CountingOracle,
    DuplicateElement,
    EstimateCache,
    InvalidArgument,
    ModularSpec,
    NonFiniteValue,
    SetFunctionOracle,
    UnknownElement,
    WeightedCoverageSpec,
    build_modular,
    build_weighted_coverage,
    greedy_optimistic,
    greedy_pessimistic,
    k_wise_upper_estimate,
    post_hoc_bound,
)
from pairsub import bounds
from pairsub.oracles import argmax
from pairsub.validation import values_close

from _reference import _scratch_lower, _scratch_upper
from _synth import city_oracle, random_soc_oracle


@pytest.fixture
def chain_coverage():
    # x1={1,2}, x2={2,3}, x3={3,4}, unit weights
    spec = WeightedCoverageSpec({1: 1, 2: 1, 3: 1, 4: 1}, [{1, 2}, {2, 3}, {3, 4}])
    return build_weighted_coverage(spec)


@pytest.fixture
def modular312():
    return build_modular(ModularSpec([3, 1, 2]))


class TestEvaluate:
    def test_empty_set_is_zero(self, chain_coverage):
        assert chain_coverage.evaluate(()) == 0.0

    def test_union_by_hand(self):
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1, 2: 1, 3: 1}, [{1, 2}, {2, 3}])
        )
        assert oracle.evaluate([0, 1]) == 3.0

    def test_budget_rejects_oversized_query(self, chain_coverage):
        pairwise = chain_coverage.restricted(2)
        with pytest.raises(BudgetExceeded):
            pairwise.evaluate([0, 1, 2])

    @pytest.mark.parametrize("budget", [0, -3])
    def test_restricted_budget_below_one_rejected_by_constructor(self, chain_coverage, budget):
        with pytest.raises(InvalidArgument, match="budget must be >= 1"):
            chain_coverage.restricted(budget)

    def test_budget_two_rejects_every_triple(self, chain_coverage):
        pairwise = chain_coverage.restricted(2)
        assert pairwise.evaluate([0, 1]) == 3.0
        for triple in [(0, 1, 2), (0, 2, 1)]:
            with pytest.raises(BudgetExceeded):
                pairwise.evaluate(triple)

    def test_unknown_element(self, chain_coverage):
        with pytest.raises(UnknownElement):
            chain_coverage.evaluate([0, 3])
        with pytest.raises(UnknownElement):
            chain_coverage.evaluate([-1])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "element ids must be integers, got True"),
            (1.0, "element ids must be integers, got 1.0"),
            (-1, "element id -1 outside ground set [0, 3)"),
            (3, "element id 3 outside ground set [0, 3)"),
        ],
        ids=["bool", "float", "negative", "ground_size"],
    )
    def test_bad_id_messages(self, chain_coverage, bad, message):
        for ids in ([bad], frozenset([bad]), (0, bad)):
            with pytest.raises(UnknownElement) as info:
                chain_coverage.evaluate(ids)
            assert str(info.value) == message

    def test_int_enum_ids_accepted(self, chain_coverage):
        class Station(IntEnum):
            FIRST = 0
            LAST = 2

        assert chain_coverage.evaluate([Station.LAST]) == chain_coverage.evaluate([2])
        assert chain_coverage.evaluate((Station.FIRST, 1)) == chain_coverage.evaluate((0, 1))

    def test_order_independent(self, chain_coverage):
        assert chain_coverage.evaluate([2, 0, 1]) == chain_coverage.evaluate([0, 1, 2])
        assert chain_coverage.evaluate((1, 0)) == chain_coverage.evaluate((0, 1))

    def test_oracle_immutable(self, chain_coverage):
        with pytest.raises(AttributeError):
            chain_coverage.budget = 2


class TestMarginal:
    def test_coverage_marginal(self, chain_coverage):
        assert chain_coverage.marginal(1, [0]) == 1.0

    def test_empty_conditioning_is_singleton_value(self, chain_coverage):
        for x in range(3):
            assert chain_coverage.marginal(x, ()) == chain_coverage.evaluate((x,))

    def test_modular_marginal(self, modular312):
        assert modular312.marginal(2, [0, 1]) == 2.0

    def test_element_in_set_rejected(self, chain_coverage):
        with pytest.raises(DuplicateElement):
            chain_coverage.marginal(0, [0, 1])


class TestUpperEstimate:
    def test_min_pairwise(self, chain_coverage):
        assert _scratch_upper(chain_coverage, 1, [0, 2]) == 1.0

    def test_empty_set_convention(self, chain_coverage):
        assert _scratch_upper(chain_coverage, 1, ()) == 2.0

    def test_modular_is_exact(self, modular312):
        for x in range(3):
            rest = [y for y in range(3) if y != x]
            assert _scratch_upper(modular312, x, rest) == modular312.marginal(x, rest)

    def test_equals_the_cache_on_a_non_submodular_table(self):
        """Every pair marginal is 4 > f(x) = 1; the estimate still starts from f(x)."""
        values = (0.0, 1.0, 5.0)
        oracle = SetFunctionOracle(4, lambda s: values[len(s)], budget=2)
        cache = EstimateCache(oracle)
        conditioned = []
        for x_i in (2, 0):
            cache.condition_on(x_i, oracle)
            conditioned.append(x_i)
            for x in cache.upper:
                assert _scratch_upper(oracle, x, conditioned) == cache.upper[x] == 1.0


class TestKWiseUpperEstimate:
    def test_k3_sees_the_full_pair(self, chain_coverage):
        assert k_wise_upper_estimate(chain_coverage, 1, [0, 2], 3) == 0.0

    def test_k2_matches_pairwise(self, chain_coverage):
        for x in range(3):
            rest = [y for y in range(3) if y != x]
            assert k_wise_upper_estimate(chain_coverage, x, rest, 2) == _scratch_upper(
                chain_coverage, x, rest
            )

    def test_empty_set_any_k(self, chain_coverage):
        for k in (2, 3, 5):
            assert k_wise_upper_estimate(chain_coverage, 0, (), k) == 2.0

    def test_monotone_in_k(self):
        rng = random.Random(3)
        oracle = random_soc_oracle(rng, 7)
        s = [0, 2, 4, 5]
        values = [k_wise_upper_estimate(oracle, 1, s, k) for k in (2, 3, 4, 5)]
        for smaller_k, larger_k in zip(values, values[1:]):
            assert larger_k <= smaller_k + 1e-12

    def test_k_below_two_rejected(self, chain_coverage):
        with pytest.raises(ValueError):
            k_wise_upper_estimate(chain_coverage, 0, [1], 1)

    def test_asks_each_conditioning_set_once(self):
        oracle = random_soc_oracle(random.Random(5), 8)
        s = [0, 2, 3, 5, 7]
        for k in (2, 3, 4, 6, 7):
            view = CountingOracle(oracle)
            k_wise_upper_estimate(view, 1, s, k)
            expected = 1 + 2 * sum(math.comb(len(s), size) for size in range(1, k))
            assert view.counts.total == expected


class TestLowerEstimate:
    def test_chain_value(self, chain_coverage):
        assert _scratch_lower(chain_coverage, 1, [0, 2]) == 0.0

    def test_can_go_negative(self):
        # three copies of the same unit cover
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1}, [{1}, {1}, {1}])
        )
        assert _scratch_lower(oracle, 0, [1, 2]) == -1.0
        assert oracle.marginal(0, [1, 2]) == 0.0

    def test_empty_set(self, chain_coverage):
        assert _scratch_lower(chain_coverage, 2, ()) == 2.0


class TestEstimateCache:
    def test_matches_from_scratch_estimates(self):
        rng = random.Random(11)
        oracle = random_soc_oracle(rng, 8)
        cache = EstimateCache(oracle)
        conditioned = []
        for x_i in (3, 0, 5):
            cache.condition_on(x_i, oracle)
            conditioned.append(x_i)
            for x in cache.upper:
                assert values_close(cache.upper[x], _scratch_upper(oracle, x, conditioned))
                assert values_close(cache.lower[x], _scratch_lower(oracle, x, conditioned))
                assert cache.upper[x] >= cache.lower[x] - 1e-12

    def test_duplicate_conditioning_rejected(self, chain_coverage):
        cache = EstimateCache(chain_coverage)
        cache.condition_on(0, chain_coverage)
        with pytest.raises(DuplicateElement):
            cache.condition_on(0, chain_coverage)

    def test_ties_go_to_the_lowest_remaining_id(self):
        """Conditioned out of order, the keys still ascend and lead the tie rule."""
        oracle = build_modular(ModularSpec([1.0] * 5))
        cache = EstimateCache(oracle)
        cache.condition_on(2, oracle)
        cache.condition_on(0, oracle)
        assert list(cache.upper) == list(cache.lower) == [1, 3, 4]
        assert cache.argmax_upper() == cache.argmax_lower() == (1, 1.0)

    def test_refused_column_leaves_cache_unchanged(self, chain_coverage):
        view = CountingOracle(chain_coverage.restricted(1))
        cache = EstimateCache(view)
        before = (dict(cache.upper), dict(cache.lower))
        with pytest.raises(BudgetExceeded):
            cache.condition_on(1, view)
        assert (cache.upper, cache.lower) == before
        assert view.counts.total == 3

    def test_no_candidates_is_a_typed_error(self, chain_coverage):
        cache = EstimateCache(chain_coverage)
        for x in range(chain_coverage.ground_size):
            cache.condition_on(x, chain_coverage)
        for empty in (cache.argmax_upper, cache.argmax_lower):
            with pytest.raises(InvalidArgument, match="no candidates remain"):
                empty()

    @pytest.mark.parametrize(("table", "named"), [
        ({0: math.nan, 1: 2.0, 2: 1.0}, 0),
        ({0: 1.0, 1: math.nan, 2: 0.5}, 1),
        ({0: math.inf, 1: -math.inf, 2: math.nan}, 2),
    ], ids=["nan_first", "nan_between", "nan_after_both_infs"])
    def test_argmax_refuses_a_nan_among_finite_values(self, table, named):
        with pytest.raises(NonFiniteValue, match=f"candidate {named} has nan"):
            argmax(table)

    def test_argmax_ranks_plus_and_minus_inf_together(self):
        # their sum is NaN, but no value is
        assert argmax({0: -math.inf, 1: 2.0, 2: math.inf, 3: math.inf}) == (2, math.inf)
        assert argmax({0: -math.inf, 1: 2.0}) == (1, 2.0)


class TestPairColumn:
    def test_counter_sees_every_pair(self, monkeypatch):
        rng = random.Random(71)
        inner = random_soc_oracle(rng, 15)
        calls = []

        def counted(s):
            calls.append(s)
            return inner.evaluate(s)

        oracle = SetFunctionOracle(15, counted, budget=2)
        for runner in (greedy_optimistic, greedy_pessimistic):
            calls.clear()
            counts = runner(oracle, 6).query_counts
            assert len(calls) == counts.total

        views = []

        class Recorded(CountingOracle):
            def __init__(self, inner):
                super().__init__(inner)
                views.append(self)

        monkeypatch.setattr(bounds, "CountingOracle", Recorded)
        calls.clear()
        post_hoc_bound([3, 9, 0, 14], oracle)
        assert len(views) == 1
        assert len(calls) == views[0].counts.total == 15 + 14 + 13 + 12

    @pytest.mark.parametrize("make", [lambda: random_soc_oracle(random.Random(73), 12),
                                      lambda: city_oracle(seed=5, count=30)],
                             ids=["soc", "city"])
    def test_column_equals_per_pair_evaluate(self, make):
        oracle = make()
        m = oracle.ground_size
        for x in (0, m // 2, m - 1):
            ys = [y for y in range(m) if y != x]
            view = CountingOracle(oracle)
            column = view.evaluate_pairs(x, ys)
            expected = [oracle.evaluate((y, x)) for y in ys]
            assert [v.hex() for v in column] == [v.hex() for v in expected]
            counts = view.counts
            assert (counts.size1, counts.size2, counts.other) == (0, len(ys), 0)
            assert counts.work_units == 2 * len(ys)

    def test_budget_one_view_raises_and_counts_nothing(self, chain_coverage):
        view = CountingOracle(chain_coverage.restricted(1))
        with pytest.raises(BudgetExceeded):
            view.evaluate_pairs(0, [1, 2])
        assert (view.counts.total, view.counts.work_units) == (0, 0)

    def test_column_checks_ids(self, chain_coverage):
        view = CountingOracle(chain_coverage)
        with pytest.raises(UnknownElement):
            view.evaluate_pairs(0, [1, 3])
        with pytest.raises(DuplicateElement):
            view.evaluate_pairs(1, [0, 1])
        assert view.counts.total == 0


@st.composite
def coverage_oracles(draw):
    m = draw(st.integers(min_value=2, max_value=6))
    universe = draw(st.integers(min_value=2, max_value=8))
    weights = {
        u: draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
        for u in range(universe)
    }
    covers = [
        draw(st.sets(st.integers(min_value=0, max_value=universe - 1)))
        for _ in range(m)
    ]
    return build_weighted_coverage(WeightedCoverageSpec(weights, covers))


@settings(max_examples=60, deadline=None)
@given(coverage_oracles(), st.data())
def test_estimates_sandwich_true_marginal(oracle, data):
    m = oracle.ground_size
    x = data.draw(st.integers(min_value=0, max_value=m - 1))
    others = [y for y in range(m) if y != x]
    s = data.draw(st.sets(st.sampled_from(others)) if others else st.just(set()))
    true_marginal = oracle.marginal(x, s)
    upper = _scratch_upper(oracle, x, sorted(s))
    lower = _scratch_lower(oracle, x, sorted(s))
    assert upper >= true_marginal - 1e-9
    assert lower <= true_marginal + 1e-9
    for k in (2, 3, 4):
        k_upper = k_wise_upper_estimate(oracle, x, s, k)
        assert true_marginal - 1e-9 <= k_upper <= upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(coverage_oracles(), st.data())
def test_evaluate_depends_only_on_the_set(oracle, data):
    ids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=oracle.ground_size - 1),
            max_size=oracle.ground_size,
        )
    )
    shuffled = list(ids)
    random.Random(0).shuffle(shuffled)
    assert oracle.evaluate(ids) == oracle.evaluate(shuffled)


def test_counting_view_buckets_sizes():
    oracle = build_modular(ModularSpec([1, 2, 3]))
    from pairsub import CountingOracle

    view = CountingOracle(oracle)
    view.evaluate((0,))
    view.evaluate((0, 1))
    view.evaluate((0, 1, 2))
    view.evaluate(())
    counts = view.counts
    assert (counts.size1, counts.size2, counts.other) == (1, 1, 2)
    assert counts.work_units == 1 + 2 + 3 + 1
    assert counts.total == 4
