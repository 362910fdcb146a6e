"""Built-in function families and the instance JSON schema."""

import itertools
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    AdversarialSpec,
    BudgetExceeded,
    MalformedSpec,
    ModularSpec,
    ProbabilisticCoverageSpec,
    WeightedCoverageSpec,
    build_adversarial,
    build_modular,
    build_probabilistic_coverage,
    build_weighted_coverage,
    check_monotone,
    check_normalized,
    check_submodular,
    check_supermodularity_of_conditioning,
    greedy_optimistic,
    instance_from_dict,
    post_hoc_bound,
    spec_from_dict,
)

from pairsub import functions
from pairsub.validation import tolerance

from _reference import _scratch_lower, _scratch_upper, naive_probabilistic_value
from _synth import (
    city_oracle,
    no_column,
    random_modular,
    random_probabilistic_coverage,
    random_weighted_coverage,
)


class TestWeightedCoverage:
    def test_hand_union(self):
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1, 2: 1, 3: 1}, [{1, 2}, {2, 3}])
        )
        assert oracle.evaluate([0, 1]) == 3.0

    def test_empty_covers(self):
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1, 2: 1}, [set(), set()])
        )
        assert oracle.evaluate([0]) == 0.0
        assert oracle.evaluate([0, 1]) == 0.0

    def test_weighted_union(self):
        oracle = build_weighted_coverage(WeightedCoverageSpec({1: 2, 2: 0}, [{1, 2}]))
        assert oracle.evaluate([0]) == 2.0

    def test_dangling_reference(self):
        with pytest.raises(MalformedSpec):
            build_weighted_coverage(WeightedCoverageSpec({1: 1}, [{1, 9}]))

    def test_negative_weight(self):
        with pytest.raises(MalformedSpec):
            build_weighted_coverage(WeightedCoverageSpec({1: -0.5}, [{1}]))

    def test_pairs_with_shared_and_disjoint_covers(self):
        # dyadic weights sum exactly in any order, so each pair is its union's sum
        weights = {u: 2.0 ** -u for u in range(8)}
        covers = [{0, 1}, {1, 2, 3}, {4}, {3, 4, 5}, set(), {0, 1, 2, 3, 4, 5, 6, 7}]
        oracle = build_weighted_coverage(WeightedCoverageSpec(weights, covers))
        for x, y in itertools.combinations(range(len(covers)), 2):
            union = sum(weights[u] for u in covers[x] | covers[y])
            assert oracle.evaluate([x, y]) == union, (x, y)

    def test_pairs_are_the_inclusion_exclusion_sum_bit_for_bit(self):
        rng = random.Random(9)
        weights = [rng.uniform(0.0, 2.0) for _ in range(60)]
        covers = [rng.sample(range(60), rng.randint(0, 8)) for _ in range(25)]
        oracle = build_weighted_coverage(WeightedCoverageSpec(weights, covers))
        single = [oracle.evaluate([x]) for x in range(len(covers))]
        met = 0
        for x, y in itertools.combinations(range(len(covers)), 2):
            shared = sorted(set(covers[x]) & set(covers[y]))
            met += bool(shared)
            expected = single[x] + single[y] - sum(weights[u] for u in shared)
            assert oracle.evaluate([x, y]) == expected, (x, y)
        assert 0 < met < 300  # both branches are taken

    def test_properties_small(self):
        rng = random.Random(0)
        oracle = random_weighted_coverage(rng, 6)
        assert check_normalized(oracle).holds
        assert check_monotone(oracle).holds
        assert check_submodular(oracle).holds
        assert check_supermodularity_of_conditioning(oracle).holds


def _shared_covers(rng, keyed: bool):
    """A weighted-coverage spec whose universe is smaller than its total cover
    size, with empty covers, and the covers as sets of universe positions.
    keyed gives a mapping universe in shuffled key order and covers as sets."""
    universe = rng.randint(2, 9)
    covers = [rng.sample(range(universe), rng.randint(0, universe)) if rng.random() < 0.8
              else [] for _ in range(rng.randint(2, 16))]
    weights = [rng.uniform(0.0, 2.0) for _ in range(universe)]
    if not keyed:
        return WeightedCoverageSpec(weights, covers), [frozenset(c) for c in covers]
    keys = [f"u{e}" for e in rng.sample(range(100), universe)]  # key order is position order
    spec = WeightedCoverageSpec(dict(zip(keys, weights)),
                                {f"c{x}": {keys[e] for e in c} for x, c in enumerate(covers)})
    return spec, [frozenset(c) for c in covers]


class TestOwnerIndex:
    INSTANCES = [_shared_covers(random.Random(seed), keyed=seed % 2 == 1) for seed in range(60)]

    def test_instances_share_elements_among_three_or_more_covers(self):
        owners = [max(sum(e in c for c in covers) for e in range(len(spec.universe_weights)))
                  for spec, covers in self.INSTANCES]
        assert max(owners) >= 3 and sum(o >= 3 for o in owners) >= 30
        assert sum(frozenset() in covers for _, covers in self.INSTANCES) >= 30

    def test_met_is_every_cover_that_shares_an_element(self):
        for spec, covers in self.INSTANCES:
            met = functions._owner_index(covers, len(spec.universe_weights))
            for x, cover_x in enumerate(covers):
                brute = {y for y, cover_y in enumerate(covers) if not cover_x.isdisjoint(cover_y)}
                assert met(x) == brute, (spec, x)

    def test_pair_columns_equal_the_per_set_values_bit_for_bit(self):
        rng = random.Random(11)
        for spec, covers in self.INSTANCES:
            oracle = build_weighted_coverage(spec)
            plain = no_column(oracle)
            for x in range(len(covers)):
                ys = [y for y in range(len(covers)) if y != x]
                rng.shuffle(ys)
                column = [v.hex() for v in oracle.evaluate_extensions((x,), ys)]
                assert column == [v.hex() for v in plain.evaluate_extensions((x,), ys)], (spec, x)
                assert column == [oracle.evaluate([x, y]).hex() for y in ys], (spec, x)


BAD_VALUE = "'weighted_coverage' instance has a bad value: "


@pytest.mark.parametrize("entry", ["instance_from_dict", "build_weighted_coverage"])
@pytest.mark.parametrize("universe, covers, error, message", [
    ([1.0, -2.0, "heavy"], [[0], [1]], MalformedSpec,
     "weight -2.0 for universe element 1 is negative or not finite"),
    ([1.0, math.nan], [[0], [1]], MalformedSpec,
     "weight nan for universe element 1 is negative or not finite"),
    ([1.0, math.inf], [[0], [1]], MalformedSpec,
     "weight inf for universe element 1 is negative or not finite"),
    ([1.0, 2.0, 3.0], [[0, 1], [2], [1, 7]], MalformedSpec,
     "cover 2 references unknown universe element 7"),
    ({"a": 1.0, "b": 2.0}, {"x": ["a"], "y": ["b", "c"]}, MalformedSpec,
     "cover 'y' references unknown universe element 'c'"),
    ([1.0, 2.0], [[0], 5], TypeError, "'int' object is not iterable"),
    ([1.0, 2.0], [], MalformedSpec, "covers must declare at least one element"),
    ([1.0, 2.0], 5, MalformedSpec, "covers must be a mapping or a sequence"),
    ({1.0, 2.0}, [[0]], MalformedSpec, "universe_weights must be a mapping or a sequence"),
    ([1.0, 2.0, 4.0], [[0], [True]], None, [1.0, 2.0]),
    ([1.0, 2.0, 4.0], [[0], [1.0]], None, [1.0, 2.0]),
    ({1: 5.0, 0: 1.0}, [[1], [0]], None, [5.0, 1.0]),
], ids=["negative_before_non_numeric", "nan_weight", "inf_weight", "unknown_in_later_cover",
        "missing_mapping_key", "non_iterable_cover", "no_covers", "covers_a_number",
        "universe_weights_a_set", "true_is_element_1", "float_is_element_1",
        "int_keys_out_of_position_order"])
def test_weighted_coverage_parse_keeps_the_per_item_errors(entry, universe, covers, error,
                                                           message):
    if entry == "instance_from_dict":
        def build():
            return instance_from_dict({"type": "weighted_coverage",
                                       "params": {"universe_weights": universe, "covers": covers}})
        if error not in (None, MalformedSpec):  # the document reader names the family
            error, message = MalformedSpec, BAD_VALUE + message
    else:
        def build():
            return build_weighted_coverage(WeightedCoverageSpec(universe, covers))
    if error is None:
        oracle = build()
        assert [oracle.evaluate([x]) for x in range(oracle.ground_size)] == message
        return
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


class TestProbabilisticCoverage:
    @pytest.fixture
    def two_districts(self):
        spec = ProbabilisticCoverageSpec(
            demands=[2.0, 3.0], probabilities=[[0.5, 0.0], [0.5, 1.0]]
        )
        return build_probabilistic_coverage(spec)

    def test_single_station_closed_form(self, two_districts):
        assert two_districts.evaluate([0]) == pytest.approx(1.0, abs=1e-12)

    def test_pair_closed_form(self, two_districts):
        assert two_districts.evaluate([0, 1]) == pytest.approx(4.5, abs=1e-12)

    def test_zero_probabilities(self):
        oracle = build_probabilistic_coverage(
            ProbabilisticCoverageSpec([1.0, 2.0], [[0.0, 0.0], [0.0, 0.0]])
        )
        assert oracle.evaluate([0, 1]) == 0.0

    def test_out_of_range_probability(self):
        with pytest.raises(MalformedSpec):
            build_probabilistic_coverage(
                ProbabilisticCoverageSpec([1.0], [[1.5]])
            )

    def test_negative_demand(self):
        with pytest.raises(MalformedSpec):
            build_probabilistic_coverage(ProbabilisticCoverageSpec([-1.0], [[0.5]]))

    def test_closed_forms_match_oracle(self):
        rng = random.Random(5)
        oracle = random_probabilistic_coverage(rng, 6)
        spec = oracle.spec
        demands = list(spec.demands)
        probs = [list(row) for row in spec.probabilities]
        for x in range(6):
            singleton = sum(p * v for p, v in zip(probs[x], demands))
            assert oracle.evaluate([x]) == pytest.approx(singleton, rel=1e-9, abs=1e-12)
            for y in range(x + 1, 6):
                pair = sum(
                    (1 - (1 - px) * (1 - py)) * v
                    for px, py, v in zip(probs[x], probs[y], demands)
                )
                assert oracle.evaluate([x, y]) == pytest.approx(pair, rel=1e-9, abs=1e-12)

    def test_soc_holds(self):
        rng = random.Random(9)
        oracle = random_probabilistic_coverage(rng, 5)
        assert check_supermodularity_of_conditioning(oracle).holds


probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
demand = st.just(0.0) | st.floats(0.0, 1e6)


@st.composite
def sparse_probabilistic_specs(draw):
    """Keyed demands and sparse probability mappings listed in shuffled order."""
    districts = draw(st.integers(1, 12))
    stations = draw(st.integers(2, 5))
    demands = {f"d{e}": draw(demand) for e in range(districts)}
    probabilities = {}
    for x in range(stations):
        keys = draw(st.permutations(list(demands)))
        keys = keys[:draw(st.integers(0, districts))]
        probabilities[f"s{x}"] = {key: draw(probability) for key in keys}
    return ProbabilisticCoverageSpec(demands, probabilities)


class TestProbabilisticPairKernel:
    @settings(max_examples=200, deadline=None)
    @given(sparse_probabilistic_specs())
    def test_singles_and_pairs_match_an_exact_sum(self, spec):
        oracle = build_probabilistic_coverage(spec)
        v = spec.demands
        p = [[row.get(key, 0.0) for key in v] for row in spec.probabilities.values()]
        for x in range(len(p)):
            single = math.fsum(px * ve for px, ve in zip(p[x], v.values()))
            assert oracle.evaluate([x]) == pytest.approx(single, rel=1e-12, abs=1e-300)
            for y in range(x + 1, len(p)):
                pair = math.fsum((px + py - px * py) * ve
                                 for px, py, ve in zip(p[x], p[y], v.values()))
                assert oracle.evaluate([x, y]) == pytest.approx(pair, rel=1e-12, abs=1e-300)

    def test_pairs_within_2e_15_of_the_exact_rational_value(self):
        spec = city_oracle(count=40).spec
        oracle = build_probabilistic_coverage(spec)
        v = [Fraction(ve) for ve in spec.demands]
        p = [[Fraction(pe) for pe in row] for row in spec.probabilities]
        assert {len(v)} == set(map(len, p))
        for x, y in itertools.combinations(range(oracle.ground_size), 2):
            exact = sum((px + py - px * py) * ve for px, py, ve in zip(p[x], p[y], v))
            error = abs(Fraction(oracle.evaluate([x, y])) - exact)
            assert error <= Fraction(2e-15) * exact, (x, y)

    def test_station_that_overflows_is_rejected_by_name(self):
        spec = ProbabilisticCoverageSpec([1e308, 1e308], {"s0": [0.5, 0.0], "s1": [1.0, 1.0]})
        with pytest.raises(MalformedSpec, match="station 's1' overflows"):
            build_probabilistic_coverage(spec)

    def test_station_whose_f_alone_overflows_is_rejected_by_name(self):
        # f(x) = 1.8e308 overflows while |sqrt(v) * p|^2 = 1.64e308 does not
        spec = ProbabilisticCoverageSpec([1e308, 1e308], {"s0": [1.0, 0.8]})
        with pytest.raises(MalformedSpec, match="station 's0' overflows: f = inf"):
            build_probabilistic_coverage(spec)

    def test_pair_near_the_float_limit_stays_finite(self):
        # f(x) + f(y) alone would overflow; h[x] + h[y] + d * d / 2 does not
        oracle = build_probabilistic_coverage(
            ProbabilisticCoverageSpec([1e308], [[1.0], [1.0]]))
        assert oracle.evaluate([0, 1]) == pytest.approx(1e308, rel=1e-15)

    def test_pair_path_agrees_with_the_product_loop(self):
        # a station that reaches no district leaves the product loop's value exact,
        # so f({x, y, idle}) is the loop's answer for the pair {x, y}
        spec = city_oracle(count=60).spec
        probabilities = [*spec.probabilities, {}]
        oracle = build_probabilistic_coverage(
            ProbabilisticCoverageSpec(spec.demands, probabilities))
        idle = oracle.ground_size - 1
        for x in range(idle):
            for y in range(x + 1, idle):
                pair = oracle.evaluate([x, y])
                loop = oracle.evaluate([x, y, idle])
                assert abs(pair - loop) <= tolerance(pair, loop)


def _edge_probabilities(rng, m, districts):
    """Stations whose probabilities are often exactly 0 or 1."""
    demands = [rng.uniform(0.0, 3.0) for _ in range(districts)]
    probabilities = [[rng.choice((0.0, 1.0, rng.random())) for _ in range(districts)]
                     for _ in range(m)]
    return build_probabilistic_coverage(ProbabilisticCoverageSpec(demands, probabilities))


class TestProbabilisticLargeSets:
    @pytest.mark.parametrize("make", [
        lambda: city_oracle(count=60),
        lambda: random_probabilistic_coverage(random.Random(11), 30, districts=1),
        lambda: random_probabilistic_coverage(random.Random(12), 30, districts=5),
        lambda: random_probabilistic_coverage(random.Random(13), 30, districts=40),
        lambda: _edge_probabilities(random.Random(14), 30, 7),
    ], ids=["city", "1_district", "5_districts", "40_districts", "zero_and_one"])
    def test_every_size_is_the_plain_loop_bit_for_bit(self, make):
        oracle = make()
        m = oracle.ground_size
        rng = random.Random(m)
        for size in range(3, m + 1):
            for _ in range(5):
                ids = rng.sample(range(m), size)  # shuffled id order
                assert oracle.evaluate(ids) == naive_probabilistic_value(oracle, ids)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_first_read_order_is_the_plain_loop_bit_for_bit(self, data):
        # rows are boxed on their first read by a larger set, so the order of
        # the queries decides when; the budget-2 view and a wide view share
        # the boxed rows with the oracle
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        deep = data.draw(st.booleans(), label="a thousand stations and more")
        if deep:
            m = 1002
            oracle = build_probabilistic_coverage(ProbabilisticCoverageSpec(
                [1.0, 2.0], [[rng.uniform(0.0, 2e-3) for _ in range(2)] for _ in range(m)]))
        else:
            m = data.draw(st.integers(3, 12), label="m")
            oracle = _edge_probabilities(rng, m, 5)
        pair_view, wide_view = oracle.restricted(2), oracle.restricted(m)
        queries = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=1,
                                              max_size=min(m, 6), unique=True),
                                     min_size=1, max_size=8), label="queries")
        if deep:
            queries.insert(data.draw(st.integers(0, len(queries))), rng.sample(range(m), m))
        for ids in queries:
            if len(ids) <= 2:
                assert pair_view.evaluate(ids) == oracle.evaluate(ids)
                continue
            with pytest.raises(BudgetExceeded):
                pair_view.evaluate(ids)
            asked = data.draw(st.sampled_from([oracle, wide_view]), label="asked")
            assert asked.evaluate(ids) == naive_probabilistic_value(oracle, ids)

    def test_threads_filling_the_boxed_rows_together_change_no_value(self):
        # more threads than cores, switching often, race to box the same rows
        rng = random.Random(17)
        oracle = random_probabilistic_coverage(rng, 40, districts=30)
        sets = [rng.sample(range(40), rng.randint(3, 12)) for _ in range(200)]
        expected = [naive_probabilistic_value(oracle, ids) for ids in sets]
        answers = [[] for _ in range(8)]
        threads = [threading.Thread(target=lambda out: out.extend(map(oracle.evaluate, sets)),
                                    args=(out,)) for out in answers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * len(threads)

    def test_sets_across_the_chain_depth_are_the_plain_loop(self):
        rng = random.Random(15)
        depth = 1000
        m = 2 * depth + 3
        # small probabilities keep the products of thousands of miss rates off zero
        probabilities = [[rng.uniform(0.0, 2e-3) for _ in range(3)] for _ in range(m)]
        oracle = build_probabilistic_coverage(
            ProbabilisticCoverageSpec([1.0, 2.0, 3.0], probabilities))
        for size in (depth, depth + 1, 2 * depth, 2 * depth + 1, m):
            ids = rng.sample(range(m), size)
            value = oracle.evaluate(ids)
            assert 0.0 < value < 6.0
            assert value == naive_probabilistic_value(oracle, ids)

    def test_a_set_of_120_000_stations_is_answered(self):
        # a product kept as a chain of lazy maps this deep would overflow the C stack
        rng = random.Random(16)
        m = 120_000
        oracle = build_probabilistic_coverage(ProbabilisticCoverageSpec(
            [1.0], [[rng.uniform(0.0, 1e-5)] for _ in range(m)]))
        assert oracle.evaluate(range(m)) == naive_probabilistic_value(oracle, range(m))

    def test_the_town_audit_shape_is_the_plain_loop_bit_for_bit(self):
        # 120 districts, as the benchmark's town instance: y below, between and
        # above a's members leaves one, two or three rows to the last product
        oracle = city_oracle(count=120)
        rng = random.Random(18)
        for size in (2, 3, 7):
            a = rng.sample(range(1, 119), size)  # shuffled, with ids below and above
            ys = [y for y in range(120) if y not in a]
            assert {min(a) < y < max(a) for y in ys} == {False, True}
            column = oracle.evaluate_extensions(a, ys)
            expected = [naive_probabilistic_value(oracle, (*a, y)) for y in ys]
            assert [v.hex() for v in column] == [v.hex() for v in expected]
        for size in range(3, 9):
            for _ in range(10):
                ids = rng.sample(range(120), size)
                expected = naive_probabilistic_value(oracle, ids)
                assert oracle.evaluate(ids).hex() == expected.hex()


def _row_shapes(rng, m, districts):
    """One probability table in four row shapes, each with whether the
    builder reads its rows in bulk: mapping rows naming every district in
    order, the same rows with their keys reversed, the rows without their
    zero entries (each has one), and list rows under list demands."""
    keys = [f"d{e}" for e in range(districts)]
    demands = [rng.uniform(0.0, 3.0) for _ in keys]
    table = [[rng.choice((0.0, 1.0, rng.random())) for _ in keys] for _ in range(m)]
    for x, row in enumerate(table):
        row[x % districts] = 0.0
    stations = [f"s{x}" for x in range(m)]
    keyed = [dict(zip(keys, row)) for row in table]
    mapped = dict(zip(keys, demands))
    return {
        "in_order": (ProbabilisticCoverageSpec(mapped, dict(zip(stations, keyed))), True),
        "shuffled": (ProbabilisticCoverageSpec(mapped, {
            s: dict(reversed(row.items())) for s, row in zip(stations, keyed)}), False),
        "partial": (ProbabilisticCoverageSpec(mapped, {
            s: {k: p for k, p in row.items() if p} for s, row in zip(stations, keyed)}), False),
        "lists": (ProbabilisticCoverageSpec(demands, table), True),
    }


SHAPES = ["in_order", "shuffled", "partial", "lists"]


def _hex_singles_and_pairs(oracle):
    m = oracle.ground_size
    return ([oracle.evaluate([x]).hex() for x in range(m)]
            + [oracle.evaluate([x, y]).hex() for x in range(m) for y in range(x + 1, m)])


class TestStationRowReads:
    """A row naming every district in order is read in bulk and any other
    row entry by entry; both reads give the same oracle bit for bit, and the
    miss rows of larger sets are built only when a larger set reads them."""

    @pytest.mark.parametrize("seed, m, districts", [(21, 8, 2), (22, 12, 7), (23, 9, 30)])
    def test_each_shape_takes_its_read_and_gives_the_same_values(self, monkeypatch, seed, m,
                                                                 districts):
        by_key = []
        read_by_key = functions._read_by_key
        monkeypatch.setattr(functions, "_read_by_key",
                            lambda *args: by_key.append(args[0]) or read_by_key(*args))
        rng = random.Random(seed)
        expected = None
        for name, (spec, bulk) in _row_shapes(rng, m, districts).items():
            by_key.clear()
            oracle = build_probabilistic_coverage(spec)
            assert by_key == ([] if bulk else list(spec.probabilities)), name
            values = _hex_singles_and_pairs(oracle)
            expected = expected or values
            assert values == expected, name
            for size in (3, 5, m):
                for _ in range(4):
                    ids = rng.sample(range(m), size)
                    assert oracle.evaluate(ids) == naive_probabilistic_value(oracle, ids), name

    @pytest.mark.parametrize("pairs_first", [True, False], ids=["pairs_first", "chains_first"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_budget_2_view_builds_no_chain_row(self, monkeypatch, shape, pairs_first):
        built = []
        missing = functions._Boxed.__missing__
        monkeypatch.setattr(functions._Boxed, "__missing__",
                            lambda boxed, x: built.append(x) or missing(boxed, x))
        rng = random.Random(31)
        m = 10
        spec, _ = _row_shapes(rng, m, 6)[shape]
        expected_pairs = _hex_singles_and_pairs(build_probabilistic_coverage(spec))
        sets = [rng.sample(range(m), rng.randint(3, m)) for _ in range(12)]
        built.clear()
        oracle = build_probabilistic_coverage(spec)
        view = oracle.restricted(2)
        assert built == []  # set-up builds none

        def pairs():
            values = _hex_singles_and_pairs(view)
            run = greedy_optimistic(view, 4)
            post_hoc_bound(run.selected_order, view)
            return values

        def chains():
            return [oracle.evaluate(ids).hex() for ids in sets]

        if pairs_first:
            assert pairs() == expected_pairs
            assert built == []
            chain_values = chains()
        else:
            chain_values = chains()
            assert pairs() == expected_pairs
        assert chain_values == [naive_probabilistic_value(oracle, ids).hex() for ids in sets]
        assert sorted(built) == sorted({x for ids in sets for x in ids})  # each row once


PROBABILITY_ERRORS = {
    "unknown_district": (MalformedSpec, "station {s} references unknown district {k}"),
    "above_one": (MalformedSpec, "probability 1.5 for station {s}, district {d} outside [0, 1]"),
    "negative": (MalformedSpec, "probability -0.1 for station {s}, district {d} outside [0, 1]"),
    "nan": (MalformedSpec, "probability nan for station {s}, district {d} outside [0, 1]"),
    "string": (ValueError, "could not convert string to float: 'x'"),
    "none": (TypeError, None),  # float()'s own message, which differs across versions
    "above_one_before_string": (
        MalformedSpec, "probability 1.5 for station {s}, district {d} outside [0, 1]"),
}
BAD_PROBABILITY = {"above_one": 1.5, "negative": -0.1, "nan": math.nan, "string": "x",
                   "none": None}


def _bad_probability_spec(form, row, case):
    """Three valid station rows over three districts, with row `row` spoiled
    at its middle district, as mappings in district order or as lists."""
    good = [0.25, 0.5, 0.75]
    probabilities = [list(good) for _ in range(3)]
    if case == "unknown_district":
        probabilities[row].append(0.5)
    elif case == "above_one_before_string":
        probabilities[row][1:] = [1.5, "x"]
    else:
        probabilities[row][1] = BAD_PROBABILITY[case]
    if form == "list":
        return [1.0, 2.0, 3.0], probabilities, {"s": row, "d": 1, "k": 3}
    keys = ["d0", "d1", "d2", "dx"]
    rows = {f"s{x}": dict(zip(keys, p)) for x, p in enumerate(probabilities)}
    return (dict(zip(keys, [1.0, 2.0, 3.0])), rows,
            {"s": repr(f"s{row}"), "d": "'d1'", "k": "'dx'"})


@pytest.mark.parametrize("entry", ["build_probabilistic_coverage", "instance_from_dict"])
@pytest.mark.parametrize("row", [0, 1], ids=["first_row", "middle_row"])
@pytest.mark.parametrize("form", ["mapping", "list"])
@pytest.mark.parametrize("case", list(PROBABILITY_ERRORS))
def test_probabilistic_coverage_errors_keep_their_type_and_message(entry, row, form, case):
    demands, probabilities, names = _bad_probability_spec(form, row, case)
    error, message = PROBABILITY_ERRORS[case]
    if message is None:
        with pytest.raises(TypeError) as raised:
            float(None)
        message = str(raised.value)
    message = message.format(**names)
    if entry == "instance_from_dict":
        def build():
            return instance_from_dict({"type": "probabilistic_coverage",
                                       "params": {"demands": demands,
                                                  "probabilities": probabilities}})
        if error is not MalformedSpec:  # the document reader names the family
            error, message = MalformedSpec, "'probabilistic_coverage' instance has a bad value: " + message
    else:
        def build():
            return build_probabilistic_coverage(ProbabilisticCoverageSpec(demands, probabilities))
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


# name -> (build, message) of a spec or document its builder refuses with a
# MalformedSpec
MALFORMED_SPECS = {
    "no_demands": (lambda: build_probabilistic_coverage(ProbabilisticCoverageSpec([], [])),
                   "demands must declare at least one district"),
    "no_stations": (lambda: build_probabilistic_coverage(ProbabilisticCoverageSpec([1.0], [])),
                    "probabilities must declare at least one station"),
    "demands_a_number": (
        lambda: build_probabilistic_coverage(ProbabilisticCoverageSpec(5, [[0.5]])),
        "demands must be a mapping or a sequence"),
    "demands_a_string": (
        lambda: build_probabilistic_coverage(ProbabilisticCoverageSpec("ab", [[0.5]])),
        "demands must be a mapping or a sequence"),
    "station_row_a_number": (
        lambda: build_probabilistic_coverage(ProbabilisticCoverageSpec([1.0], [[0.5], 0.5])),
        "probabilities[1] must be a mapping or a sequence"),
    "adversarial_k_zero": (lambda: build_adversarial(AdversarialSpec(V=[0], V_star=[1], k=0)),
                           "k must be >= 1, got 0"),
    "adversarial_overlap": (
        lambda: build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[2, 3, 1], k=1)),
        "V and V_star overlap: [1, 2]"),
    "no_weights": (lambda: build_modular(ModularSpec([])),
                   "weights must declare at least one element"),
    # each family's amounts are read in order and the first bad one is named
    "coverage_zero_before_negative": (
        lambda: build_weighted_coverage(WeightedCoverageSpec([0.0, -1.0], [[0], [1]])),
        "weight -1.0 for universe element 1 is negative or not finite"),
    "modular_zero_before_negative": (lambda: build_modular(ModularSpec([0.0, -1.0])),
                                     "weight -1.0 for element 1 is negative or not finite"),
    "modular_negative_before_non_numeric": (
        lambda: build_modular(ModularSpec([-1.0, "heavy"])),
        "weight -1.0 for element 0 is negative or not finite"),
    "demand_zero_before_negative": (
        lambda: build_probabilistic_coverage(
            ProbabilisticCoverageSpec([0.0, -1.0], [[0.5, 0.5]])),
        "demand -1.0 for district 1 is negative or not finite"),
    "demand_inf": (
        lambda: build_probabilistic_coverage(
            ProbabilisticCoverageSpec([1.0, math.inf], [[0.5, 0.5]])),
        "demand inf for district 1 is negative or not finite"),
    "demand_negative_before_non_numeric": (
        lambda: build_probabilistic_coverage(
            ProbabilisticCoverageSpec({"a": -1.0, "b": "x"}, [[0.5, 0.5]])),
        "demand -1.0 for district 'a' is negative or not finite"),
    "document_a_list": (lambda: spec_from_dict([{"type": "modular"}]),
                        "instance document must be a JSON object"),
    "document_a_string": (lambda: instance_from_dict("modular"),
                          "instance document must be a JSON object"),
    "spec_of_no_family": (lambda: functions.build_oracle(object()),
                          "no builder for spec type object"),
}


@pytest.mark.parametrize(("build", "message"), MALFORMED_SPECS.values(),
                         ids=MALFORMED_SPECS.keys())
def test_a_malformed_spec_is_refused_by_name(build, message):
    with pytest.raises(MalformedSpec) as raised:
        build()
    assert (type(raised.value), str(raised.value)) == (MalformedSpec, message)


def test_an_instance_file_may_start_with_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('\ufeff{"type": "modular", "params": {"weights": [3, 1, 2]}}',
                    encoding="utf-8")
    assert [functions.load_instance(path).evaluate(s) for s in ([0], [1, 2])] == [3.0, 3.0]


def _oracle_of(family, data):
    m = data.draw(st.integers(3, 40), label="m")
    if family == "adversarial":
        ids = data.draw(st.permutations(range(m)))
        cut = data.draw(st.integers(1, m - 1))
        return build_adversarial(AdversarialSpec(ids[:cut], ids[cut:], 2))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if family == "weighted_coverage":
        # ids far above the set's table size collide, so insertion order shows
        universe = 4000
        weights = {u: rng.uniform(0.0, 2.0) for u in range(universe)}
        covers = [rng.sample(range(universe), rng.randint(0, 12)) for _ in range(m)]
        return build_weighted_coverage(WeightedCoverageSpec(weights, covers))
    if family == "probabilistic_coverage":
        return random_probabilistic_coverage(rng, m, districts=8)
    return random_modular(rng, m)


@pytest.mark.parametrize(
    "family", ["weighted_coverage", "probabilistic_coverage", "adversarial", "modular"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_value_does_not_depend_on_id_order(family, data):
    oracle = _oracle_of(family, data)
    # up to 4 ids: a frozenset of 5 grows to 32 slots, where ids below 40 rarely collide
    ids = data.draw(st.lists(st.integers(0, oracle.ground_size - 1), min_size=1,
                             max_size=4, unique=True), label="ids")
    values = {oracle.evaluate(order) for order in itertools.permutations(ids)}
    assert len(values) == 1


class TestAdversarial:
    @pytest.fixture
    def instance(self):
        # V = {a,b,c} -> ids 0..2, V* = {d,e} -> ids 3..4, k = 2
        return build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3, 4], k=2))

    def test_truncates_general_set(self, instance):
        assert instance.evaluate([0, 1, 2]) == 2.0

    def test_counts_special_set(self, instance):
        assert instance.evaluate([0, 3, 4]) == 3.0

    def test_normalized(self, instance):
        assert instance.evaluate(()) == 0.0

    def test_small_sets_map_to_cardinality(self, instance):
        from itertools import combinations

        for size in (1, 2):
            for s in combinations(range(5), size):
                assert instance.evaluate(s) == float(size)

    def test_monotone_and_submodular(self, instance):
        assert check_monotone(instance).holds
        assert check_submodular(instance).holds

    def test_soc_fails_with_replayable_witness(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))
        report = check_supermodularity_of_conditioning(oracle)
        assert not report.holds
        w = report.witness
        s, a, b, c = (frozenset(w[key]) for key in ("S", "A", "B", "C"))
        # replay through plain evaluations
        def f_given(sset, cond):
            return oracle.evaluate(sset | cond) - oracle.evaluate(cond)

        lhs = f_given(s, a) - f_given(s, a | c)
        rhs = f_given(s, b) - f_given(s, b | c)
        assert lhs == pytest.approx(w["lhs"])
        assert rhs == pytest.approx(w["rhs"])
        assert lhs < rhs - 1e-9
        # the documented witness shape: singleton sets from V, A empty
        assert a == frozenset()
        assert s <= {0, 1, 2} and b <= {0, 1, 2} and c <= {0, 1, 2}

    def test_overlap_rejected(self):
        with pytest.raises(MalformedSpec):
            build_adversarial(AdversarialSpec(V=[0, 1], V_star=[1, 2], k=2))

    def test_sparse_ids_rejected(self):
        with pytest.raises(MalformedSpec):
            build_adversarial(AdversarialSpec(V=[0, 2], V_star=[5], k=1))

    @pytest.mark.parametrize("spec", [
        AdversarialSpec(V=[0, 1], V_star=[2], k=1.5),
        AdversarialSpec(V=[0.5, 1], V_star=[2], k=1),
        AdversarialSpec(V=[0, 1], V_star=["2"], k=1),
    ], ids=["k", "V", "V_star_string"])
    def test_non_integral_ids_and_k_rejected(self, spec):
        with pytest.raises(MalformedSpec, match="must be integers"):
            build_adversarial(spec)

    def test_integral_floats_accepted(self):
        oracle = build_adversarial(AdversarialSpec(V=[0.0, 1], V_star=[2], k=2.0))
        assert oracle.evaluate([0, 1, 2]) == 3.0


class TestModular:
    def test_sum(self):
        oracle = build_modular(ModularSpec([3, 1, 2]))
        assert oracle.evaluate([0, 2]) == 5.0

    def test_estimates_collapse(self):
        oracle = build_modular(ModularSpec([3, 1, 2]))
        for x in range(3):
            rest = [y for y in range(3) if y != x]
            fx = oracle.evaluate((x,))
            assert _scratch_upper(oracle, x, rest) == fx
            assert _scratch_lower(oracle, x, rest) == pytest.approx(fx)

    def test_zero_curvature(self):
        from pairsub import traditional_curvature

        oracle = build_modular(ModularSpec([3, 1, 2]))
        assert traditional_curvature(oracle) == pytest.approx(0.0, abs=1e-12)

    def test_negative_weight(self):
        with pytest.raises(MalformedSpec):
            build_modular(ModularSpec([1, -2]))


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("build", [
    lambda bad: build_weighted_coverage(WeightedCoverageSpec({1: 1.0, 2: bad}, [{1}, {2}])),
    lambda bad: build_probabilistic_coverage(ProbabilisticCoverageSpec([1.0, bad], [[0.5, 0.5]])),
    lambda bad: build_probabilistic_coverage(ProbabilisticCoverageSpec([1.0], [[bad]])),
    lambda bad: build_modular(ModularSpec([1.0, bad])),
    lambda bad: build_adversarial(AdversarialSpec(V=[0], V_star=[bad], k=1)),
    lambda bad: build_adversarial(AdversarialSpec(V=[0], V_star=[1], k=bad)),
], ids=["coverage_weight", "demand", "probability", "modular_weight", "adversarial_id",
        "adversarial_k"])
def test_non_finite_numbers_rejected(build, bad):
    with pytest.raises(MalformedSpec):
        build(bad)


OVERFLOWING = {
    "modular": ({"type": "modular", "params": {"weights": [1e308, 1e308]}},
                "weights sum to inf, which is not finite"),
    "weighted_coverage": ({"type": "weighted_coverage",
                           "params": {"universe_weights": [1e308, 1e308], "covers": [[0], [1]]}},
                          "universe weights sum to inf, which is not finite"),
    "probabilistic_coverage": ({"type": "probabilistic_coverage",
                                "params": {"demands": [1e308, 1e308],
                                           "probabilities": [[1, 0], [0, 1]]}},
                               "demands sum to inf, which is not finite"),
}


@pytest.mark.parametrize(("doc", "message"), OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_instance_whose_total_overflows_is_refused(doc, message):
    """Each value is at most the total, so a finite total keeps f finite; here
    f({0, 1}) would be inf, which a JSON report cannot carry."""
    with pytest.raises(MalformedSpec) as raised:
        instance_from_dict(doc)
    assert str(raised.value) == message


def test_instance_whose_total_is_finite_is_kept():
    for doc in (
        {"type": "modular", "params": {"weights": [1e308, 7e307]}},
        {"type": "weighted_coverage",
         "params": {"universe_weights": [1e308, 7e307], "covers": [[0], [1]]}},
        {"type": "probabilistic_coverage",
         "params": {"demands": [1e308, 7e307], "probabilities": [[1, 0], [0, 1]]}},
    ):
        assert instance_from_dict(doc).evaluate([0, 1]) == pytest.approx(1.7e308, rel=1e-15)


def test_random_instances_pass_property_suite():
    """Sampled normalized/monotone/submodular checks over 100 random builds."""
    rng = random.Random(2024)
    families = (random_weighted_coverage, random_probabilistic_coverage, random_modular)
    for trial in range(100):
        m = rng.randint(3, 12)
        oracle = families[trial % 3](rng, m)
        assert check_normalized(oracle).holds
        mode = "auto" if m <= 8 else "sampled"
        assert check_monotone(oracle, samples=300, seed=trial, mode=mode).holds
        assert check_submodular(oracle, samples=300, seed=trial, mode=mode).holds


class TestInstanceSchema:
    def test_value_a_family_cannot_take_names_family_and_value(self):
        doc = {"type": "modular", "params": {"weights": [1, "heavy"]}}
        with pytest.raises(MalformedSpec, match="'modular' instance.*'heavy'"):
            instance_from_dict(doc)

    def test_builder_errors_pass_through_unchanged(self):
        doc = {"type": "modular", "params": {"weights": [1, -2]}}
        with pytest.raises(MalformedSpec, match="^weight -2.0 for element 1 is negative"):
            instance_from_dict(doc)

    def test_round_trip_each_type(self):
        docs = [
            {
                "type": "weighted_coverage",
                "params": {
                    "universe_weights": {"u1": 1.0, "u2": 2.0},
                    "covers": {"x1": ["u1"], "x2": ["u1", "u2"]},
                },
            },
            {
                "type": "probabilistic_coverage",
                "params": {
                    "demands": {"e1": 2.0, "e2": 3.0},
                    "probabilities": {
                        "x": {"e1": 0.5},
                        "y": {"e1": 0.5, "e2": 1.0},
                    },
                },
            },
            {"type": "adversarial", "params": {"V": [0, 1, 2], "V_star": [3, 4], "k": 2}},
            {"type": "modular", "params": {"weights": [3, 1, 2]}},
        ]
        for doc in docs:
            oracle = instance_from_dict(doc)
            assert oracle.evaluate(()) == 0.0
            assert oracle.ground_size >= 2

    def test_probabilities_default_to_zero(self):
        doc = {
            "type": "probabilistic_coverage",
            "params": {
                "demands": {"e1": 2.0, "e2": 3.0},
                "probabilities": {"x": {"e1": 0.5}, "y": {"e2": 1.0}},
            },
        }
        oracle = instance_from_dict(doc)
        assert oracle.evaluate([0]) == pytest.approx(1.0)
        assert oracle.evaluate([1]) == pytest.approx(3.0)

    def test_unknown_type(self):
        with pytest.raises(MalformedSpec):
            spec_from_dict({"type": "entropy", "params": {}})

    def test_missing_or_extra_params(self):
        with pytest.raises(MalformedSpec):
            spec_from_dict({"type": "modular", "params": {}})
        with pytest.raises(MalformedSpec):
            spec_from_dict(
                {"type": "modular", "params": {"weights": [1], "extra": 2}}
            )


def test_a_run_imports_only_the_standard_library():
    # the pair kernel's math.dist keeps `dependencies = []` in pyproject.toml
    code = """
import sys
before = set(sys.modules)
sys.path[:0] = sys.argv[1:]
import pairsub
from _synth import city_oracle
pairsub.greedy_optimistic(city_oracle(count=30), 5)
print(sorted(name for name in set(sys.modules) - before
             if name.partition(".")[0] not in sys.stdlib_module_names
             and name.partition(".")[0] not in ("pairsub", "_synth")))
"""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "tests")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
