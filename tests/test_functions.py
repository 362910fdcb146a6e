"""Built-in function families and the instance JSON schema."""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    AdversarialSpec,
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
    instance_from_dict,
    spec_from_dict,
)

from pairsub.validation import tolerance

from _reference import _scratch_lower, _scratch_upper
from _synth import (
    city_oracle,
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

    def test_properties_small(self):
        rng = random.Random(0)
        oracle = random_weighted_coverage(rng, 6)
        assert check_normalized(oracle).holds
        assert check_monotone(oracle).holds
        assert check_submodular(oracle).holds
        assert check_supermodularity_of_conditioning(oracle).holds


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
        v = [Fraction(ve) for ve in spec.demands.values()]
        p = [[Fraction(row.get(key, 0.0)) for key in spec.demands]
             for row in spec.probabilities.values()]
        for x, y in itertools.combinations(range(oracle.ground_size), 2):
            exact = sum((px + py - px * py) * ve for px, py, ve in zip(p[x], p[y], v))
            error = abs(Fraction(oracle.evaluate([x, y])) - exact)
            assert error <= Fraction(2e-15) * exact, (x, y)

    def test_station_that_overflows_is_rejected_by_name(self):
        spec = ProbabilisticCoverageSpec([1e308, 1e308], {"s0": [0.5, 0.0], "s1": [1.0, 1.0]})
        with pytest.raises(MalformedSpec, match="station 's1' overflows"):
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
        probabilities = {**spec.probabilities, "idle": {}}
        oracle = build_probabilistic_coverage(
            ProbabilisticCoverageSpec(spec.demands, probabilities))
        idle = oracle.ground_size - 1
        for x in range(idle):
            for y in range(x + 1, idle):
                pair = oracle.evaluate([x, y])
                loop = oracle.evaluate([x, y, idle])
                assert abs(pair - loop) <= tolerance(pair, loop)


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
