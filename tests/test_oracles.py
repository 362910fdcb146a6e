"""Core oracle, budget, and marginal-estimate behavior."""

import math
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    AdversarialSpec,
    BudgetExceeded,
    CountingOracle,
    DuplicateElement,
    EstimateCache,
    InvalidArgument,
    ModularSpec,
    NonFiniteValue,
    ProbabilisticCoverageSpec,
    QueryCounts,
    SetFunctionOracle,
    UnknownElement,
    WeightedCoverageSpec,
    build_adversarial,
    build_modular,
    build_probabilistic_coverage,
    build_weighted_coverage,
    greedy_optimistic,
    greedy_pessimistic,
    k_wise_upper_estimate,
    post_hoc_bound,
)
from pairsub import bounds
from pairsub.errors import PairsubError
from pairsub.oracles import argmax, fold_k_wise, fold_lower, fold_upper
from pairsub.validation import values_close

from _reference import (
    _scratch_lower,
    _scratch_upper,
    dict_argmax,
    dict_fold_lower,
    dict_fold_upper,
    naive_post_hoc_bound,
    naive_probabilistic_value,
)
from _synth import (
    city_oracle,
    no_column,
    random_modular,
    random_probabilistic_coverage,
    random_soc_oracle,
    random_weighted_coverage,
)


def _argmax_by_id(table):
    """argmax over an id -> value dict, its winner named by id."""
    ids = list(table)
    j, value = argmax(ids, list(table.values()))
    return ids[j], value


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

    @pytest.mark.parametrize("ground_size", [0, -2, 3.0, True])
    def test_a_ground_size_that_is_no_positive_int_is_refused(self, ground_size):
        with pytest.raises(InvalidArgument) as raised:
            SetFunctionOracle(ground_size, lambda s: 0.0)
        assert (type(raised.value), str(raised.value)) == (
            InvalidArgument, "ground_size must be a positive integer")

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
        cache = EstimateCache(oracle, range(4))
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

    @pytest.mark.parametrize("ids", [[0], [2, 0], frozenset({0, 1})])
    def test_x_in_the_conditioning_set_is_refused_before_any_query(self, chain_coverage, ids):
        view = CountingOracle(chain_coverage)
        with pytest.raises(DuplicateElement) as raised:
            k_wise_upper_estimate(view, 0, ids, 3)
        assert (type(raised.value), str(raised.value), view.counts.total) == (
            DuplicateElement, "element 0 already in the conditioning set", 0)

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
        cache = EstimateCache(oracle, range(8))
        conditioned = []
        for x_i in (3, 0, 5):
            cache.condition_on(x_i, oracle)
            conditioned.append(x_i)
            for x in cache.upper:
                assert values_close(cache.upper[x], _scratch_upper(oracle, x, conditioned))
                assert values_close(cache.lower[x], _scratch_lower(oracle, x, conditioned))
                assert cache.upper[x] >= cache.lower[x] - 1e-12

    def test_duplicate_conditioning_rejected(self, chain_coverage):
        cache = EstimateCache(chain_coverage, range(3))
        cache.condition_on(0, chain_coverage)
        with pytest.raises(DuplicateElement):
            cache.condition_on(0, chain_coverage)

    def test_ties_go_to_the_lowest_remaining_id(self):
        """Conditioned out of order, the keys still ascend and lead the tie rule."""
        oracle = build_modular(ModularSpec([1.0] * 5))
        cache = EstimateCache(oracle, range(5))
        cache.condition_on(2, oracle)
        cache.condition_on(0, oracle)
        assert list(cache.upper) == list(cache.lower) == [1, 3, 4]
        assert _argmax_by_id(cache.upper) == _argmax_by_id(cache.lower) == (1, 1.0)
        assert cache.max_upper() == cache.lower_of(1) == 1.0

    @pytest.mark.parametrize("tracked", [range(3), [2, 0]])
    def test_refused_column_leaves_cache_unchanged(self, chain_coverage, tracked):
        view = CountingOracle(chain_coverage.restricted(1))
        cache = EstimateCache(view, tracked)
        before = (dict(cache.upper), dict(cache.lower))
        with pytest.raises(BudgetExceeded):
            cache.condition_on(1, view)
        assert (cache.upper, cache.lower) == before
        assert view.counts.total == 3

    @pytest.mark.parametrize("family", [random_weighted_coverage, random_probabilistic_coverage])
    def test_conditioning_through_a_smaller_oracle_is_refused(self, family):
        """The cache asks only the oracle it was built on: one with fewer or
        more ids, or another view of the same one, is refused before any
        query, and the tables stay as they were."""
        oracle = family(random.Random(3), 6)
        others = [family(random.Random(4), 4), family(random.Random(5), 8),
                  oracle.restricted(2), CountingOracle(oracle)]
        for x_i in (0, 5):
            cache = EstimateCache(oracle, range(6))
            before = (dict(cache.upper), dict(cache.lower))
            for other in others:
                view = CountingOracle(other)
                with pytest.raises(InvalidArgument, match="the oracle the cache was built on"):
                    cache.condition_on(x_i, view)
                assert view.counts.total == 0
                assert (cache.upper, cache.lower) == before
            cache.condition_on(x_i, oracle)
            assert x_i not in cache.upper

    @pytest.mark.parametrize("x_i", [True, 1.0], ids=["bool", "float"])
    def test_an_id_that_only_equals_a_pick_is_no_id(self, chain_coverage, x_i):
        """After 1 is picked, True and 1.0 find 1 among the picks by
        equality, yet they are no ids: UnknownElement, not DuplicateElement."""
        cache = EstimateCache(chain_coverage, range(3))
        cache.condition_on(1, chain_coverage)
        before = (dict(cache.upper), dict(cache.lower))
        with pytest.raises(UnknownElement, match="element ids must be integers"):
            cache.condition_on(x_i, chain_coverage)
        assert (cache.upper, cache.lower) == before
        with pytest.raises(DuplicateElement, match="element 1 was already selected"):
            cache.condition_on(1, chain_coverage)

    @pytest.mark.parametrize("x_i", [True, 1.0], ids=["bool", "float"])
    def test_conditioning_on_an_id_that_only_equals_one_is_refused(self, chain_coverage, x_i):
        """True and 1.0 are keys of the tables by equality, yet no element id:
        the pair column refuses them before anything changes."""
        view = CountingOracle(chain_coverage)
        cache = EstimateCache(view, range(3))
        cache.condition_on(0, view)
        tables = [list(cache.base)] + [(dict(t), [type(x) for x in t])
                                       for t in (cache.upper, cache.lower)]
        counts = (view.counts.total, view.counts.work_units)
        with pytest.raises(UnknownElement):
            cache.condition_on(x_i, view)
        assert [list(cache.base)] + [(dict(t), [type(x) for x in t])
                                     for t in (cache.upper, cache.lower)] == tables
        assert (view.counts.total, view.counts.work_units) == counts

    @pytest.mark.parametrize("seed", range(8))
    def test_tracked_ids_fold_as_in_the_full_cache(self, seed):
        """lower keeps only the tracked ids, each bit for bit as the full
        cache has it, in any conditioning order; upper is the full cache's."""
        rng = random.Random(seed)
        oracle = city_oracle(seed=seed, count=30) if seed < 2 else random_soc_oracle(rng, 12)
        m = oracle.ground_size
        tracked = rng.sample(range(m), rng.randint(1, m - 1))
        full, part = EstimateCache(oracle, range(m)), EstimateCache(oracle, tracked)
        assert list(part.lower) == sorted(tracked)
        for x_i in rng.sample(range(m), m - 1):
            full.condition_on(x_i, oracle)
            part.condition_on(x_i, oracle)
            assert {x: v.hex() for x, v in part.upper.items()} == {
                x: v.hex() for x, v in full.upper.items()}
            assert {x: v.hex() for x, v in part.lower.items()} == {
                x: v.hex() for x, v in full.lower.items() if x in tracked}

    @pytest.mark.parametrize("seed", range(6))
    def test_tables_are_the_runs_folds(self, seed):
        """Conditioned on one order, upper is the k = 2 fold_k_wise table and
        lower the fold_lower table at the tracked ids, bit for bit: a run's
        own tables are Algorithm 1's."""
        rng = random.Random(seed)
        oracle = city_oracle(seed=seed, count=30) if seed < 2 else random_soc_oracle(rng, 12)
        view = oracle.restricted(2)
        m = view.ground_size
        order = rng.sample(range(m), rng.randint(1, m - 1))
        cache = EstimateCache(view, order)
        base = view.evaluate_extensions((), list(range(m)))  # f({x}) at position x
        ids, selected = list(range(m)), []
        upper, lower, singles = list(base), list(base), list(base)
        for x_i in order:
            cache.condition_on(x_i, view)
            j = ids.index(x_i)
            del ids[j], upper[j], lower[j], singles[j]
            upper = fold_k_wise(view, ids, upper, selected, x_i, base[x_i], 2)
            lower = fold_lower(lower, singles, base[x_i], view.evaluate_extensions((x_i,), ids))
            selected.append(x_i)
            assert {x: v.hex() for x, v in cache.upper.items()} == {
                x: v.hex() for x, v in zip(ids, upper)}
            lower_of = dict(zip(ids, lower))
            assert {x: v.hex() for x, v in cache.lower.items()} == {
                x: lower_of[x].hex() for x in sorted(order) if x in lower_of}

    @pytest.mark.parametrize("tracked", [[0, 3], [1, -1], [True], [1, "0"]])
    def test_tracked_ids_outside_the_ground_set_are_refused_before_any_query(
            self, chain_coverage, tracked):
        view = CountingOracle(chain_coverage)
        with pytest.raises(UnknownElement):
            EstimateCache(view, tracked)
        assert view.counts.total == 0

    def test_no_candidates_is_a_typed_error(self, chain_coverage):
        cache = EstimateCache(chain_coverage, range(3))
        for x in range(chain_coverage.ground_size):
            cache.condition_on(x, chain_coverage)
        for empty in (cache.max_upper, lambda: _argmax_by_id(cache.lower)):
            with pytest.raises(InvalidArgument, match="no candidates remain"):
                empty()

    @pytest.mark.parametrize(("table", "named"), [
        ({0: math.nan, 1: 2.0, 2: 1.0}, 0),
        ({0: 1.0, 1: math.nan, 2: 0.5}, 1),
        ({0: math.inf, 1: -math.inf, 2: math.nan}, 2),
    ], ids=["nan_first", "nan_between", "nan_after_both_infs"])
    def test_argmax_refuses_a_nan_among_finite_values(self, table, named):
        with pytest.raises(NonFiniteValue, match=f"candidate {named} has nan"):
            _argmax_by_id(table)

    def test_argmax_ranks_plus_and_minus_inf_together(self):
        # their sum is NaN, but no value is
        assert _argmax_by_id({0: -math.inf, 1: 2.0, 2: math.inf, 3: math.inf}) == (2, math.inf)
        assert _argmax_by_id({0: -math.inf, 1: 2.0}) == (1, 2.0)


# values that tie, cancel or compare specially: both zeros and both infinities
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf]


def _random_table(rng, size, nan=False):
    """size ascending ids drawn from range(3 * size), so an id is seldom its
    position, and a value for each: half from _SPECIAL, half uniform, and
    with nan one NaN among them."""
    ids = sorted(rng.sample(range(3 * size), size))
    values = [rng.choice(_SPECIAL) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0)
              for _ in ids]
    if nan and values:
        values[rng.randrange(size)] = math.nan
    return ids, values


def _hexed(values):
    return [v.hex() for v in values]


def _outcome(rule):
    """The winner's id and value by .hex(), or the type and message of the
    error the rule raised."""
    try:
        x, value = rule()
    except PairsubError as exc:
        return type(exc), str(exc)
    return x, value.hex()


class TestPositionalRules:
    """fold_upper, fold_lower and argmax give the dict loops of
    tests/_reference.py bit for bit, on random tables with both zeros, both
    infinities and NaN."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fold_upper_is_the_dict_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            size = rng.randint(1, 40)
            ids, upper = _random_table(rng, size, nan=rng.random() < 0.2)
            column = _random_table(rng, size, nan=rng.random() < 0.2)[1]
            f_a = rng.choice([*_SPECIAL, rng.uniform(-3.0, 3.0)])
            table = dict(zip(ids, upper))
            dict_fold_upper(table, column, f_a)
            assert _hexed(fold_upper(upper, column, f_a)) == _hexed(table.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_fold_lower_is_the_dict_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            size = rng.randint(1, 40)
            ids, lower = _random_table(rng, size, nan=rng.random() < 0.2)
            base = _random_table(rng, size)[1]
            column = _random_table(rng, size, nan=rng.random() < 0.2)[1]
            f_y = rng.choice([*_SPECIAL, rng.uniform(-3.0, 3.0)])
            table = dict(zip(ids, lower))
            dict_fold_lower(table, dict(zip(ids, base)), f_y, column)
            assert _hexed(fold_lower(lower, base, f_y, column)) == _hexed(table.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_argmax_is_the_dict_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            size = rng.randint(0, 12)
            ids, values = _random_table(rng, size, nan=rng.random() < 0.2)
            if rng.random() < 0.1:
                values = [-math.inf] * size
            table = dict(zip(ids, values))
            assert _outcome(lambda: _argmax_by_id(table)) == _outcome(lambda: dict_argmax(table))

    def test_argmax_names_ids_not_positions(self):
        assert argmax([4, 9], [-0.0, 0.0])[1].hex() == (-0.0).hex()
        assert argmax([4, 9], [0.0, -0.0])[1].hex() == (0.0).hex()
        assert argmax([4, 9, 12], [1.0, 3.0, 3.0]) == (1, 3.0)
        with pytest.raises(NonFiniteValue, match="^candidate 9 has nan, which cannot be ranked$"):
            argmax([4, 9, 12], [1.0, math.nan, 0.5])
        with pytest.raises(NonFiniteValue, match="candidate 4 has -inf$"):
            argmax([4, 9], [-math.inf, -math.inf])


def _cache_holding(ids, values):
    """An EstimateCache whose remaining upper estimates are values at ids,
    bit for bit: each id's singleton is its value and every other id's 0.0,
    every pair is +inf, so conditioning on the other ids folds in only
    +inf - 0.0 and +inf - nan, which lower nothing."""
    of = dict(zip(ids, values))
    ground = 3 * len(ids) + 1
    oracle = SetFunctionOracle(
        ground, lambda s: of.get(min(s), 0.0) if len(s) == 1 else math.inf, budget=2)
    cache = EstimateCache(oracle, [])
    for x in range(ground):
        if x not in of:
            cache.condition_on(x, oracle)
    assert _hexed(cache.upper.values()) == _hexed(values) and list(cache.upper) == ids
    return cache


class TestMaxUpper:
    """max_upper is argmax's value over the upper table, bit for bit and by
    sign, or argmax's error with its message."""

    @pytest.mark.parametrize("seed", range(2))
    def test_max_upper_is_the_argmax_value(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            size = rng.randint(0, 10)
            ids, values = _random_table(rng, size, nan=rng.random() < 0.2)
            if rng.random() < 0.1:
                values = [-math.inf] * size
            cache = _cache_holding(ids, values)
            assert _outcome(lambda: (None, cache.max_upper())) == _outcome(
                lambda: (None, argmax(ids, values)[1]))

    @pytest.mark.parametrize(("values", "expected"), [
        ([-0.0, 0.0], "-0x0.0p+0"), ([0.0, -0.0], "0x0.0p+0"),
        ([-math.inf, -0.0, 0.0, -1.0], "-0x0.0p+0"),
        ([math.inf, -math.inf, 2.0], "inf"), ([-math.inf, 1.5, -math.inf], "0x1.8000000000000p+0"),
    ], ids=["minus_zero_first", "plus_zero_first", "zeros_after_minus_inf", "both_infs",
            "between_minus_infs"])
    def test_ties_keep_the_first_value(self, values, expected):
        assert _cache_holding([2, 5, 7, 8][:len(values)], values).max_upper().hex() == expected

    @pytest.mark.parametrize(("values", "error", "message"), [
        ([], InvalidArgument, "no candidates remain"),
        ([1.0, math.nan, math.nan], NonFiniteValue, "candidate 5 has nan, which cannot be ranked"),
        ([math.inf, -math.inf, math.nan], NonFiniteValue,
         "candidate 7 has nan, which cannot be ranked"),
        ([-math.inf, -math.inf], NonFiniteValue,
         "no candidate has a value above -inf; candidate 2 has -inf"),
    ], ids=["empty", "nan", "nan_after_both_infs", "all_minus_inf"])
    def test_errors_are_argmax_errors_naming_ids(self, values, error, message):
        cache = _cache_holding([2, 5, 7][:len(values)], values)
        with pytest.raises(error) as raised:
            cache.max_upper()
        assert (type(raised.value), str(raised.value)) == (error, message)


class TestPositionalLower:
    @pytest.mark.parametrize("seed", range(6))
    def test_lower_is_the_dict_fold_and_the_certificate_the_naive_one(self, seed):
        """After each pick of a random order, the tracked lower estimates are
        dict_fold_lower's table over the same pair answers, bit for bit."""
        rng = random.Random(seed)
        oracle = city_oracle(seed=seed, count=20) if seed < 2 else random_soc_oracle(rng, 12)
        m = oracle.ground_size
        order = rng.sample(range(m), rng.randint(1, m))
        tracked = rng.sample(range(m), rng.randint(0, m))
        base = {x: oracle.evaluate([x]) for x in range(m)}
        table = {x: base[x] for x in sorted(tracked)}
        cache = EstimateCache(oracle, tracked)
        for x_i in order[:-1]:
            cache.condition_on(x_i, oracle)
            table.pop(x_i, None)
            dict_fold_lower(table, base, base[x_i], [oracle.evaluate([x, x_i]) for x in table])
            assert list(cache.lower) == list(table)
            assert _hexed(cache.lower.values()) == _hexed(table.values())
            assert _hexed(map(cache.lower_of, table)) == _hexed(table.values())
        report = post_hoc_bound(order, oracle)
        alphas, gamma = naive_post_hoc_bound(oracle, order)
        assert (_hexed(report.alphas), report.gamma.hex()) == (_hexed(alphas), gamma.hex())


def _shared_covers():
    # integer weights, so every pair value is exact: covers that meet, covers
    # that do not, and two empty ones
    spec = WeightedCoverageSpec({u: u + 1 for u in range(5)},
                                [[0, 1], [1, 2], [3], [], [0, 1, 2, 3, 4], []])
    return build_weighted_coverage(spec)


SHARED_PAIRS = {(0, 1): 6.0, (0, 2): 7.0, (0, 3): 3.0, (0, 4): 15.0, (0, 5): 3.0,
                (1, 2): 9.0, (1, 3): 5.0, (1, 4): 15.0, (1, 5): 5.0, (2, 3): 4.0,
                (2, 4): 15.0, (2, 5): 4.0, (3, 4): 15.0, (3, 5): 0.0, (4, 5): 15.0}

PAIR_FAMILIES = {
    "weighted": lambda: random_weighted_coverage(random.Random(79), 12),
    "shared_cover": _shared_covers,
    "probabilistic": lambda: random_probabilistic_coverage(random.Random(83), 12, 9),
    "adversarial": lambda: build_adversarial(AdversarialSpec([0, 2, 4, 6], [1, 3, 5], 2)),
    "modular": lambda: random_modular(random.Random(89), 12),
}

# Every family as built, behind restricted(2), and each coverage family
# rebuilt without its column, next to the two original cases.
PAIR_ORACLES = {
    "soc": lambda: random_soc_oracle(random.Random(73), 12),
    "city": lambda: city_oracle(seed=5, count=30),
    **PAIR_FAMILIES,
    **{f"{name}_restricted": lambda make=make: make().restricted(2)
       for name, make in PAIR_FAMILIES.items()},
    **{f"{name}_no_column": lambda make=make: no_column(make())
       for name, make in PAIR_FAMILIES.items()
       if name not in ("adversarial", "modular")},
}

# Six stations each, so id 6 is out of range.
COLUMN_FAMILIES = {"weighted": _shared_covers,
                   "probabilistic": lambda: random_probabilistic_coverage(random.Random(83), 6, 9)}

# (x, ys, error) for a column that both the family's column and the per-pair
# fallback must refuse alike.
BAD_COLUMNS = {
    "bool_x": (True, [0, 2], UnknownElement),
    "bool_y": (2, [1, True], UnknownElement),
    "negative_x": (-1, [0, 2], UnknownElement),
    "negative_y": (0, [2, -1], UnknownElement),
    "x_out_of_range": (6, [0, 2], UnknownElement),
    "y_out_of_range": (0, [2, 6], UnknownElement),
    "x_in_ys": (1, [0, 1], DuplicateElement),
    # True == 1, so only checking the ids before the overlap makes these
    # UnknownElement, as evaluate([True]) is
    "bool_x_equal_to_y": (True, [1], UnknownElement),
    "bool_y_equal_to_x": (1, [True], UnknownElement),
}

# (a, ys, error) for a column of larger sets that the family's column and the
# per-set fallback must refuse alike, ids first, then the overlap, then the
# budget.
BAD_EXTENSIONS = {
    "bool_in_a": ((0, True), [2, 3], UnknownElement),
    "false_y_equal_to_a_member": ((0, 1), [2, False], UnknownElement),
    "float_y": ((0, 1), [2.0], UnknownElement),
    "negative_in_a": ((-1, 2), [3], UnknownElement),
    "a_out_of_range": ((2, 6), [0], UnknownElement),
    "y_out_of_range": ((0, 1, 2), [3, 6], UnknownElement),
    "bad_y_after_y_in_a": ((0, 1), [1, 7], UnknownElement),
    "y_in_a": ((0, 2, 4), [1, 4], DuplicateElement),
    "a_repeats": ((0, 2, 0), [1], DuplicateElement),
}


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

    @pytest.mark.parametrize("make", PAIR_ORACLES.values(), ids=PAIR_ORACLES.keys())
    def test_column_equals_per_pair_evaluate(self, make):
        oracle = make()
        m = oracle.ground_size
        for x in (0, m // 2, m - 1):
            ys = [y for y in range(m) if y != x]
            view = CountingOracle(oracle)
            column = view.evaluate_extensions((x,), ys)
            expected = [oracle.evaluate((y, x)) for y in ys]
            assert [v.hex() for v in column] == [v.hex() for v in expected]
            fallback = no_column(oracle).evaluate_extensions((x,), ys[::-1])[::-1]
            assert [v.hex() for v in column] == [v.hex() for v in fallback]
            counts = view.counts
            assert (counts.size1, counts.size2, counts.other) == (0, len(ys), 0)
            assert counts.work_units == 2 * len(ys)
            assert view.evaluate_extensions((x,), []) == []
            assert view.counts.total == len(ys)

    @pytest.mark.parametrize("make", PAIR_ORACLES.values(), ids=PAIR_ORACLES.keys())
    def test_extension_column_equals_per_set_evaluate(self, make):
        oracle = make()
        m = oracle.ground_size
        rng = random.Random(m)
        for size in range(min(m - 1, 8) + 1):
            a = tuple(rng.sample(range(m), size))  # unsorted
            ys = [y for y in range(m) if y not in a]
            rng.shuffle(ys)
            for view in (oracle, oracle.restricted(size + 1)):
                if view.budget is not None and view.budget <= size:
                    continue  # a budget-2 entry asked for sets of three or more
                counted = CountingOracle(view)
                column = counted.evaluate_extensions(a, ys)
                expected = [view.evaluate(frozenset((*a, y))) for y in ys]
                fallback = no_column(view).evaluate_extensions(a, ys)
                assert [v.hex() for v in column] == [v.hex() for v in expected]
                assert [v.hex() for v in column] == [v.hex() for v in fallback]
                if size >= 2 and view.name == "probabilistic_coverage":
                    # evaluate asks a column of one, so check the plain loop too
                    plain = [naive_probabilistic_value(view, (*a, y)) for y in ys]
                    assert [v.hex() for v in column] == [v.hex() for v in plain]
                counts = QueryCounts()
                counts.record(size + 1, times=len(ys))
                assert counted.counts == counts
                assert counted.evaluate_extensions(a, []) == []
                assert counted.counts == counts

    def test_extension_column_past_the_chain_depth(self):
        # a of 1,004 members, for a y below, amid and above its members
        m = 1008
        rng = random.Random(97)
        oracle = build_probabilistic_coverage(ProbabilisticCoverageSpec(
            [1.0, 2.0, 0.5], [[rng.uniform(0.0, 2e-3) for _ in range(3)] for _ in range(m)]))
        ys = [0, m // 2, m - 1, 3]
        a = [x for x in range(m) if x not in ys]
        rng.shuffle(a)
        column = oracle.evaluate_extensions(tuple(a), ys)
        expected = [naive_probabilistic_value(oracle, (*a, y)) for y in ys]
        assert [v.hex() for v in column] == [v.hex() for v in expected]
        assert column == [oracle.evaluate((*a, y)) for y in ys]

    def test_shared_covers_by_hand(self):
        oracle = _shared_covers()
        for x in range(6):
            ys = [y for y in range(6) if y != x]
            column = oracle.evaluate_extensions((x,), ys)
            assert column == [SHARED_PAIRS[min(x, y), max(x, y)] for y in ys]
            assert all(type(v) is float for v in column)

    def test_a_column_is_answered_without_eval(self):
        def one_at_a_time(s):
            raise AssertionError(f"{sorted(s)} asked through eval_fn")

        column = _shared_covers()._extensions
        oracle = SetFunctionOracle(6, one_at_a_time, extensions_fn=column).restricted(2)
        view = CountingOracle(oracle)
        assert view.evaluate_extensions((0,), [1, 2, 3]) == [6.0, 7.0, 3.0]
        assert view.counts.size2 == 3

    @pytest.mark.parametrize("case", BAD_COLUMNS.values(), ids=BAD_COLUMNS.keys())
    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_column_and_fallback_refuse_alike(self, family, case):
        x, ys, error = case
        oracle = family()
        messages = []
        for source in (oracle, no_column(oracle)):
            for view in (source, source.restricted(2)):
                counted = CountingOracle(view)
                with pytest.raises(error) as raised:
                    counted.evaluate_extensions((x,), ys)
                messages.append(str(raised.value))
                assert (counted.counts.total, counted.counts.work_units) == (0, 0)
        assert len(set(messages)) == 1, messages

    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_budget_one_column_and_fallback_alike(self, family):
        oracle = family()
        messages = []
        for source in (oracle, no_column(oracle)):
            counted = CountingOracle(source.restricted(1))
            with pytest.raises(BudgetExceeded) as raised:
                counted.evaluate_extensions((0,), [1, 2])
            messages.append(str(raised.value))
            assert counted.evaluate_extensions((0,), []) == []
            assert (counted.counts.total, counted.counts.work_units) == (0, 0)
        assert messages == ["query of size 2 exceeds information budget 1"] * 2

    @pytest.mark.parametrize("case", BAD_EXTENSIONS.values(), ids=BAD_EXTENSIONS.keys())
    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_extension_column_and_fallback_refuse_alike(self, family, case):
        a, ys, error = case
        oracle = family()
        messages = []
        for source in (oracle, no_column(oracle)):
            # a budget-2 view still reports the bad id or the overlap first
            for view in (source, source.restricted(len(a) + 1), source.restricted(2)):
                counted = CountingOracle(view)
                with pytest.raises(error) as raised:
                    counted.evaluate_extensions(a, ys)
                messages.append(str(raised.value))
                assert counted.evaluate_extensions(a, []) == []
                assert (counted.counts.total, counted.counts.work_units) == (0, 0)
        assert len(set(messages)) == 1, messages

    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_budget_below_the_column_refuses_alike(self, family):
        oracle = family()
        for size in (1, 2, 3):
            a = tuple(range(size))
            messages = []
            for source in (oracle, no_column(oracle)):
                counted = CountingOracle(source.restricted(size))
                with pytest.raises(BudgetExceeded) as raised:
                    counted.evaluate_extensions(a, [4, 5])
                messages.append(str(raised.value))
                assert (counted.counts.total, counted.counts.work_units) == (0, 0)
            assert messages == [f"query of size {size + 1} exceeds information budget {size}"] * 2

    def test_budget_one_view_raises_and_counts_nothing(self, chain_coverage):
        view = CountingOracle(chain_coverage.restricted(1))
        with pytest.raises(BudgetExceeded):
            view.evaluate_extensions((0,), [1, 2])
        assert (view.counts.total, view.counts.work_units) == (0, 0)

    def test_column_checks_ids(self, chain_coverage):
        view = CountingOracle(chain_coverage)
        with pytest.raises(UnknownElement):
            view.evaluate_extensions((0,), [1, 3])
        with pytest.raises(DuplicateElement):
            view.evaluate_extensions((1,), [0, 1])
        assert view.counts.total == 0

    @pytest.mark.parametrize(("a", "ys", "message"), [
        ((1,), [0, 2, 1], "element 1 cannot be paired with itself"),
        ((3, 0, 2), [1, 2, 4, 0], "element 2 is already in the set [0, 2, 3]"),
    ], ids=["pair", "larger"])
    def test_overlap_names_the_first_shared_y(self, a, ys, message):
        """The message names the first y of the column that is in a, with the
        pair wording for |a| = 1 and the set wording otherwise."""
        oracle = random_soc_oracle(random.Random(2), 5)
        for source in (oracle, no_column(oracle)):
            with pytest.raises(DuplicateElement) as raised:
                source.evaluate_extensions(a, ys)
            assert str(raised.value) == message

    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_one_shot_iterables_get_their_lists_answer(self, family):
        oracle = family()
        for source in (oracle, no_column(oracle)):
            for a, ys in [((0,), [1, 2]), ((3, 1), [0, 5, 2]), ((), [4, 0])]:
                listed, once = CountingOracle(source), CountingOracle(source)
                column = once.evaluate_extensions(iter(a), (y for y in ys))
                assert column == listed.evaluate_extensions(a, ys)
                assert once.counts == listed.counts
                assert once.evaluate_extensions(iter(a), iter(())) == []
                assert once.counts == listed.counts

    @pytest.mark.parametrize("case", BAD_EXTENSIONS.values(), ids=BAD_EXTENSIONS.keys())
    @pytest.mark.parametrize("family", COLUMN_FAMILIES.values(), ids=COLUMN_FAMILIES.keys())
    def test_one_shot_iterables_get_their_lists_errors(self, family, case):
        a, ys, error = case
        oracle = family()
        for source in (oracle, no_column(oracle)):
            view = CountingOracle(source)
            with pytest.raises(error) as listed:
                view.evaluate_extensions(a, ys)
            with pytest.raises(error) as once:
                view.evaluate_extensions(iter(a), (y for y in ys))
            assert str(once.value) == str(listed.value)
            assert view.counts.total == 0


def _contract_checked(oracle, calls: list):
    """oracle with its family's column wrapped to assert, on every call, the
    precondition SetFunctionOracle documents for an extensions_fn."""
    column, m = oracle._extensions, oracle.ground_size
    assert column is not None

    def extensions(a, ys):
        assert type(a) is tuple and list(a) == sorted(set(a)), a
        assert all(type(x) is int and 0 <= x < m for x in a), a
        for y in ys:
            assert type(y) is int and 0 <= y < m and y not in a, (a, y)
        calls.append(len(ys))
        return column(a, ys)

    return SetFunctionOracle(m, oracle._eval, budget=oracle.budget, name=oracle.name,
                             spec=oracle.spec, extensions_fn=extensions)


CONTRACT_INSTANCES = {
    "weighted": lambda: random_weighted_coverage(random.Random(41), 12),
    "probabilistic": lambda: random_probabilistic_coverage(random.Random(43), 12),
    "city": lambda: city_oracle(count=30),
}


@pytest.mark.parametrize("make", CONTRACT_INSTANCES.values(), ids=CONTRACT_INSTANCES.keys())
def test_every_library_column_meets_the_extensions_contract(make):
    """Every pass the library runs hands the family's column sorted, distinct,
    in-range int ids in a and in-range int ys outside a."""
    from pairsub import greedy_full, greedy_k_wise_optimistic, greedy_uninformed

    calls = []
    oracle = _contract_checked(make(), calls)
    m = oracle.ground_size
    rng = random.Random(m)
    runs = [greedy_optimistic(oracle, 5), greedy_pessimistic(oracle, 5),
            greedy_uninformed(oracle, 5), greedy_full(oracle, 5)]
    runs += [greedy_k_wise_optimistic(oracle, 4, k) for k in (3, 4)]
    for run in runs:
        post_hoc_bound(run.selected_order, oracle)
    post_hoc_bound(rng.sample(range(m), 5), oracle.restricted(2))
    for k in (2, 3):
        bounds.k_cardinality_curvature(oracle.restricted(k), k)
    for k in (2, 3, 4):
        x, *s = rng.sample(range(m), 6)
        k_wise_upper_estimate(oracle, x, s, k)
    assert len(calls) > 0 and sum(calls) > 0


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
