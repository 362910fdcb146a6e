"""Property checkers: witnesses, limits, sampling, and cross-consistency."""

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    AdversarialSpec,
    InstanceTooLarge,
    InvalidArgument,
    ModularSpec,
    SetFunctionOracle,
    WeightedCoverageSpec,
    build_adversarial,
    build_modular,
    build_weighted_coverage,
    check_marginal_lower_bound,
    check_monotone,
    check_nemhauser_inequality,
    check_normalized,
    check_pairwise_redundancy_bound,
    check_submodular,
    check_supermodularity_of_conditioning,
)
from pairsub import validation, verify
from pairsub.verify import ALL_CHECKS, subset_values

from _reference import (
    PROPERTIES,
    naive_local_check,
    naive_property_check,
    naive_sampled_check,
    naive_sampled_draws,
)
from _synth import random_probabilistic_coverage, random_soc_oracle, random_weighted_coverage


@pytest.fixture
def coverage():
    rng = random.Random(1)
    return random_weighted_coverage(rng, 6)


def shifted(oracle, offset=1.0):
    """f + offset: breaks normalization only."""
    return SetFunctionOracle(
        oracle.ground_size, lambda s: oracle.evaluate(s) + offset
    )


def negated_cardinality(m):
    return SetFunctionOracle(m, lambda s: -float(len(s)))


def squared_cardinality(m):
    """f(S) = |S|^2: monotone, normalized, supermodular."""
    return SetFunctionOracle(m, lambda s: float(len(s)) ** 2)


class TestNormalized:
    def test_coverage(self, coverage):
        assert check_normalized(coverage).holds

    def test_shifted_fails_with_empty_witness(self, coverage):
        report = check_normalized(shifted(coverage))
        assert not report.holds
        assert report.witness == {"S": [], "value": 1.0}

    def test_modular(self):
        assert check_normalized(build_modular(ModularSpec([1, 2]))).holds


class TestMonotone:
    def test_coverage(self, coverage):
        report = check_monotone(coverage)
        assert report.holds and report.instances_checked > 0

    def test_negated_fails(self):
        report = check_monotone(negated_cardinality(4))
        assert not report.holds
        assert report.witness["A"] == []
        assert report.witness["B"] == [0]

    def test_adversarial(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3, 4], k=2))
        assert check_monotone(oracle).holds

    def test_forced_exhaustive_raises_above_limit(self):
        calls = []
        oracle = SetFunctionOracle(17, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InstanceTooLarge, match="needs 1114112 tuples"):  # 17 * 2^16
            check_monotone(oracle, mode="exhaustive")
        assert calls == []


class TestSubmodular:
    def test_coverage(self, coverage):
        assert check_submodular(coverage).holds

    def test_squared_cardinality_fails(self):
        report = check_submodular(squared_cardinality(4))
        assert not report.holds
        w = report.witness
        assert w["marginal_given_A"] < w["marginal_given_B"]

    def test_adversarial(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2, 3], V_star=[4], k=2))
        assert check_submodular(oracle).holds


class TestSupermodularityOfConditioning:
    def test_weighted_coverage(self, coverage):
        assert check_supermodularity_of_conditioning(coverage).holds

    def test_probabilistic_coverage(self):
        rng = random.Random(2)
        oracle = random_probabilistic_coverage(rng, 5)
        assert check_supermodularity_of_conditioning(oracle).holds

    def test_adversarial_counterexample_replays(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))
        report = check_supermodularity_of_conditioning(oracle)
        assert not report.holds
        w = report.witness
        s, a, b, c = (frozenset(w[key]) for key in ("S", "A", "B", "C"))

        def conditioned(sset, cond):
            return oracle.evaluate(sset | cond) - oracle.evaluate(cond)

        lhs = conditioned(s, a) - conditioned(s, a | c)
        rhs = conditioned(s, b) - conditioned(s, b | c)
        assert lhs == w["lhs"] and rhs == w["rhs"]
        assert lhs < rhs

    def test_documented_witness_violates(self):
        # S={a}, A={}, B={b}, C={c} with a,b,c in V
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))

        def conditioned(sset, cond):
            return oracle.evaluate(sset | cond) - oracle.evaluate(cond)

        s, b, c = frozenset({0}), frozenset({1}), frozenset({2})
        lhs = conditioned(s, frozenset()) - conditioned(s, c)
        rhs = conditioned(s, b) - conditioned(s, b | c)
        assert lhs == 0.0 and rhs == 1.0

    def test_require_disjoint_mode_also_fails_here(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))
        report = check_supermodularity_of_conditioning(oracle, require_disjoint=True)
        assert not report.holds
        w = report.witness
        assert not (set(w["S"]) & (set(w["B"]) | set(w["C"])))


class TestPairwiseRedundancyBound:
    def test_weighted_coverage(self, coverage):
        assert check_pairwise_redundancy_bound(coverage).holds

    def test_empty_c_trivial(self):
        oracle = build_modular(ModularSpec([1.0, 2.0]))
        assert check_pairwise_redundancy_bound(oracle).holds

    def test_adversarial_fails_with_witness(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2, 3], V_star=[4], k=2))
        report = check_pairwise_redundancy_bound(oracle)
        assert not report.holds
        assert report.witness["lhs"] > report.witness["rhs"]


class TestMarginalLowerBound:
    def test_probabilistic_coverage(self):
        rng = random.Random(4)
        oracle = random_probabilistic_coverage(rng, 5)
        assert check_marginal_lower_bound(oracle).holds

    def test_modular_equality(self):
        oracle = build_modular(ModularSpec([1.0, 2.0, 3.0]))
        assert check_marginal_lower_bound(oracle).holds

    def test_adversarial_violation_witnessed(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2, 3], V_star=[4], k=2))
        report = check_marginal_lower_bound(oracle)
        assert not report.holds
        w = report.witness
        assert w["marginal"] < w["lower_estimate"]

    @pytest.mark.parametrize("run", ["exhaustive", "sampled"])
    def test_witness_estimate_is_the_ascending_fold(self, run):
        # probabilistic coverage with f(V) lowered: the only violations are
        # (x, V - x), whose float estimates fold m - 1 terms
        _, _, fold = PROPERTIES["marginal_lower_bound"]
        for seed in range(30):
            rng = random.Random(seed)
            values = subset_values(random_probabilistic_coverage(rng, rng.randint(5, 8)))
            values[-1] -= 100.0
            report = check_marginal_lower_bound(
                _Values(values), **{**GOLDEN_RUNS[run], "samples": 3000, "seed": seed})
            w = report.witness
            assert len(w["S"]) == len(values).bit_length() - 2
            assert w == fold(values.__getitem__, w["x"], sum(1 << y for y in w["S"]))


class TestNemhauser:
    def test_coverage(self, coverage):
        assert check_nemhauser_inequality(coverage).holds

    def test_s_equals_t_everywhere(self):
        oracle = build_modular(ModularSpec([2.0, 1.0]))
        assert check_nemhauser_inequality(oracle).holds

    def test_supermodular_fails(self):
        report = check_nemhauser_inequality(squared_cardinality(4))
        assert not report.holds
        assert report.witness["f_T"] > report.witness["bound"]


class TestConsistencyAndSampling:
    def test_submodular_iff_nemhauser(self):
        oracles = [
            random_soc_oracle(random.Random(s), 5) for s in range(6)
        ] + [squared_cardinality(4), negated_cardinality(4)]
        for oracle in oracles:
            a = check_submodular(oracle).holds
            b = check_nemhauser_inequality(oracle).holds
            monotone = check_monotone(oracle).holds
            if monotone:
                assert a == b

    def test_sampled_mode_is_deterministic(self):
        rng = random.Random(10)
        oracle = random_weighted_coverage(rng, 14)
        first = check_submodular(oracle, samples=200, seed=42, mode="sampled")
        second = check_submodular(oracle, samples=200, seed=42, mode="sampled")
        assert first.to_dict() == second.to_dict()
        assert first.instances_checked <= 200

    @pytest.mark.parametrize("name", sorted(set(ALL_CHECKS) - {"normalized"}))
    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampling_nothing_is_rejected(self, name, samples):
        calls = []  # refused in every mode, an enumeration too, before any query
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        for mode in ("auto", "exhaustive", "sampled"):
            with pytest.raises(InvalidArgument, match="samples >= 1"):
                ALL_CHECKS[name](oracle, samples=samples, mode=mode)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(set(ALL_CHECKS) - {"normalized"}))
    @pytest.mark.parametrize("samples", [2.5, 2.0, True, "3"])
    def test_a_samples_that_is_not_an_int_is_rejected(self, name, samples):
        calls = []  # refused in every mode, an enumeration too, before any query
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        for mode in ("auto", "exhaustive", "sampled"):
            with pytest.raises(InvalidArgument) as raised:
                ALL_CHECKS[name](oracle, samples=samples, mode=mode)
            assert (type(raised.value), str(raised.value)) == (
                InvalidArgument, f"samples must be an integer, got {samples!r}")
        assert calls == []

    @pytest.mark.parametrize("name", sorted(set(ALL_CHECKS) - {"normalized"}))
    @pytest.mark.parametrize("mode", ["fast", "Exhaustive", None])
    def test_an_unknown_mode_is_refused_before_any_query(self, name, mode):
        calls = []
        oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InvalidArgument) as raised:
            ALL_CHECKS[name](oracle, mode=mode)
        assert (type(raised.value), str(raised.value), calls) == (
            InvalidArgument, f"mode must be auto|exhaustive|sampled, got {mode!r}", [])

    def test_sampled_count_skips_degenerate_draws(self):
        calls = []
        oracle = SetFunctionOracle(1, lambda s: calls.append(s) or float(len(s)))
        for check, slots_after_x in ((check_monotone, 0), (check_submodular, 1)):
            # replay the draws: a first set of {0} leaves no x outside it
            rng = random.Random(3)
            expected = 0
            for _ in range(200):
                if rng.getrandbits(1) == 0:
                    rng.choice([0])
                    for _ in range(slots_after_x):
                        rng.getrandbits(1)
                    expected += 1
            calls.clear()
            report = check(oracle, samples=200, seed=3, mode="sampled")
            assert report.holds
            assert 0 < report.instances_checked == expected < 200
            assert len(calls) == len(set(calls))  # each set asked at most once

    @pytest.mark.parametrize("check", [check_submodular,
                                       check_supermodularity_of_conditioning])
    def test_sampled_checks_stay_lazy_on_a_large_ground_set(self, check):
        calls = []
        oracle = SetFunctionOracle(40, lambda s: calls.append(s) or float(len(s)))
        report = check(oracle, samples=200, seed=7, mode="sampled")
        assert report.holds and report.instances_checked == 200
        assert 0 < len(calls) == len(set(calls))  # each set asked at most once

    def test_exhaustive_table_above_the_limit_is_refused_before_any_query(self):
        calls = []
        m = validation.ENUMERATION_LIMIT.bit_length()  # 2^m > ENUMERATION_LIMIT
        oracle = SetFunctionOracle(m, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InstanceTooLarge, match=f"needs {1 << m} subsets"):
            subset_values(oracle)
        assert calls == []

    def test_sampled_mode_catches_gross_violation(self):
        report = check_submodular(squared_cardinality(14), samples=500, seed=1,
                                  mode="sampled")
        assert not report.holds

    def test_reports_serialize(self, coverage):
        import json

        report = check_monotone(coverage)
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert set(doc) == {"property", "holds", "witness", "instances_checked",
                            "mode", "form"}

    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_reports_say_how_they_were_checked(self, coverage, name):
        check = ALL_CHECKS[name]
        if check is check_normalized:
            runs = {("exhaustive", "quantified"): check(coverage)}
        else:
            local = name in LOCAL_CHECKS
            runs = {("exhaustive", "local" if local else "quantified"): check(coverage),
                    ("sampled", "quantified"): check(coverage, mode="sampled", samples=5)}
        for how, report in runs.items():
            assert (report.mode, report.form) == how

    @pytest.mark.parametrize("check, walk", [
        # the local form: m*3^(m-1) tuples (A, B, c)
        (check_pairwise_redundancy_bound, lambda m: m * 3 ** (m - 1)),
        # the local form: m*2^(m-1) singles and C(m,2)*2^(m-2) pairs
        (check_nemhauser_inequality, lambda m: (m << m >> 1) + (comb(m, 2) << m >> 2))])
    def test_a_subset_space_above_the_limit_is_refused_before_any_query(self, check, walk):
        calls = []
        m = next(m for m in range(1, 20) if walk(m) > validation.ENUMERATION_LIMIT)
        assert m == (12 if check is check_pairwise_redundancy_bound else 15)
        oracle = SetFunctionOracle(m, lambda s: calls.append(s) or float(len(s)))
        with pytest.raises(InstanceTooLarge, match=f"needs {walk(m)} tuples"):
            check(oracle, mode="exhaustive")
        assert calls == []
        report = check(oracle, samples=20)
        assert report.holds and report.mode == "sampled"
        # one element fewer fits, and auto proves it
        report = check(SetFunctionOracle(m - 1, lambda s: float(len(s))))
        assert (report.holds, report.mode, report.instances_checked) == \
            (True, "exhaustive", walk(m - 1))


def _table(seed, m):
    """A seeded integer table over bitmasks: normalized, neither monotone nor
    submodular."""
    rng = random.Random(seed)
    values = {0: 0.0}
    for mask in range(1, 1 << m):
        values[mask] = float(rng.randint(0, 6) + bin(mask).count("1"))
    return SetFunctionOracle(m, lambda s: values[sum(1 << x for x in s)])


GOLDEN_INSTANCES = {
    "coverage": lambda: build_weighted_coverage(WeightedCoverageSpec(
        {0: 3.0, 1: 1.0, 2: 2.0, 3: 5.0, 4: 4.0},
        [{0, 1}, {1, 2}, {3}, {0, 3, 4}, {2, 4}])),
    "squared": lambda: squared_cardinality(5),
    "negated": lambda: negated_cardinality(5),
    "table": lambda: _table(11, 4),
}
GOLDEN_RUNS = {"exhaustive": {}, "sampled": {"mode": "sampled", "samples": 60, "seed": 5}}
GOLDEN_CHECKS = {name: (name, {}) for name in ALL_CHECKS}
GOLDEN_CHECKS["soc_disjoint"] = ("supermodularity_of_conditioning", {"require_disjoint": True})
LOCAL_CHECKS = ("submodular", "supermodularity_of_conditioning", "soc_disjoint",
                "nemhauser_inequality", "pairwise_redundancy_bound")

# (check, instance, run) -> (holds, instances_checked, oracle calls, witness),
# recorded once and kept: any change to a checker's enumeration order, its
# sampling, its counting or its memo shows here.  Exhaustive submodular, SoC,
# Nemhauser and redundancy rows walk the local form, so their counts and
# witnesses are those of _reference.naive_local_check.
GOLDEN = {
    ('normalized', 'coverage', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'coverage', 'exhaustive'):
        (True, 80, 32, None),
    ('monotone', 'coverage', 'sampled'):
        (True, 59, 32, None),
    ('submodular', 'coverage', 'exhaustive'):
        (True, 80, 32, None),
    ('submodular', 'coverage', 'sampled'):
        (True, 58, 32, None),
    ('supermodularity_of_conditioning', 'coverage', 'exhaustive'):
        (True, 120, 32, None),
    ('supermodularity_of_conditioning', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('pairwise_redundancy_bound', 'coverage', 'exhaustive'):
        (True, 405, 32, None),
    ('pairwise_redundancy_bound', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'coverage', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'coverage', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'coverage', 'exhaustive'):
        (True, 160, 32, None),
    ('nemhauser_inequality', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('soc_disjoint', 'coverage', 'exhaustive'):
        (True, 40, 32, None),
    ('soc_disjoint', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'squared', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'squared', 'exhaustive'):
        (True, 80, 32, None),
    ('monotone', 'squared', 'sampled'):
        (True, 59, 32, None),
    ('submodular', 'squared', 'exhaustive'):
        (False, 1, 32, {'A': [], 'B': [1], 'x': 0, 'marginal_given_A': 1.0, 'marginal_given_B': 3.0}),
    ('submodular', 'squared', 'sampled'):
        (False, 2, 6, {'A': [1, 3], 'B': [0, 1, 3], 'x': 2, 'marginal_given_A': 5.0, 'marginal_given_B': 7.0}),
    ('supermodularity_of_conditioning', 'squared', 'exhaustive'):
        (False, 1, 32, {'S': [0], 'A': [], 'B': [1], 'C': [0], 'lhs': 1.0, 'rhs': 3.0}),
    ('supermodularity_of_conditioning', 'squared', 'sampled'):
        (False, 1, 8, {'S': [0, 1, 3], 'A': [], 'B': [0, 1, 4], 'C': [2], 'lhs': -6.0, 'rhs': -2.0}),
    ('pairwise_redundancy_bound', 'squared', 'exhaustive'):
        (True, 405, 32, None),
    ('pairwise_redundancy_bound', 'squared', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'squared', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'squared', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'squared', 'exhaustive'):
        (False, 81, 32, {'S': [], 'T': [0, 1], 'f_T': 4.0, 'bound': 2.0}),
    ('nemhauser_inequality', 'squared', 'sampled'):
        (False, 7, 15, {'S': [], 'T': [1, 3, 4], 'f_T': 9.0, 'bound': 3.0}),
    ('soc_disjoint', 'squared', 'exhaustive'):
        (True, 40, 32, None),
    ('soc_disjoint', 'squared', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'negated', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'negated', 'exhaustive'):
        (False, 1, 32, {'A': [], 'B': [0], 'f_A': -0.0, 'f_B': -1.0}),
    ('monotone', 'negated', 'sampled'):
        (False, 1, 2, {'A': [0, 1, 4], 'B': [0, 1, 3, 4], 'f_A': -3.0, 'f_B': -4.0}),
    ('submodular', 'negated', 'exhaustive'):
        (True, 80, 32, None),
    ('submodular', 'negated', 'sampled'):
        (True, 58, 32, None),
    ('supermodularity_of_conditioning', 'negated', 'exhaustive'):
        (True, 120, 32, None),
    ('supermodularity_of_conditioning', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('pairwise_redundancy_bound', 'negated', 'exhaustive'):
        (True, 405, 32, None),
    ('pairwise_redundancy_bound', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'negated', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'negated', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'negated', 'exhaustive'):
        (False, 1, 32, {'S': [0], 'T': [], 'f_T': -0.0, 'bound': -1.0}),
    ('nemhauser_inequality', 'negated', 'sampled'):
        (False, 1, 3, {'S': [0, 1, 4], 'T': [3], 'f_T': -1.0, 'bound': -4.0}),
    ('soc_disjoint', 'negated', 'exhaustive'):
        (True, 40, 32, None),
    ('soc_disjoint', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'table', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'table', 'exhaustive'):
        (False, 8, 16, {'A': [1], 'B': [0, 1], 'f_A': 7.0, 'f_B': 6.0}),
    ('monotone', 'table', 'sampled'):
        (False, 4, 5, {'A': [0, 2, 3], 'B': [0, 1, 2, 3], 'f_A': 9.0, 'f_B': 7.0}),
    ('submodular', 'table', 'exhaustive'):
        (False, 10, 16, {'A': [1], 'B': [1, 2], 'x': 0, 'marginal_given_A': -1.0, 'marginal_given_B': 1.0}),
    ('submodular', 'table', 'sampled'):
        (False, 3, 7, {'A': [1], 'B': [0, 1, 2], 'x': 3, 'marginal_given_A': -1.0, 'marginal_given_B': 1.0}),
    ('supermodularity_of_conditioning', 'table', 'exhaustive'):
        (False, 10, 16, {'S': [0], 'A': [1], 'B': [1, 2], 'C': [0], 'lhs': -1.0, 'rhs': 1.0}),
    ('supermodularity_of_conditioning', 'table', 'sampled'):
        (False, 2, 10, {'S': [0, 2, 3], 'A': [3], 'B': [2, 3], 'C': [0, 1], 'lhs': 1.0, 'rhs': 6.0}),
    ('pairwise_redundancy_bound', 'table', 'exhaustive'):
        (False, 44, 16, {'A': [0], 'B': [2, 3], 'C': [1], 'lhs': 6.0, 'rhs': 5.0}),
    ('pairwise_redundancy_bound', 'table', 'sampled'):
        (False, 43, 16, {'A': [2, 3], 'B': [1], 'C': [0], 'lhs': -1.0, 'rhs': -2.0}),
    ('marginal_lower_bound', 'table', 'exhaustive'):
        (True, 32, 16, None),
    ('marginal_lower_bound', 'table', 'sampled'):
        (True, 60, 16, None),
    ('nemhauser_inequality', 'table', 'exhaustive'):
        (False, 8, 16, {'S': [0, 1], 'T': [1], 'f_T': 7.0, 'bound': 6.0}),
    ('nemhauser_inequality', 'table', 'sampled'):
        (False, 2, 6, {'S': [0, 1, 3], 'T': [0, 2], 'f_T': 8.0, 'bound': 7.0}),
    ('soc_disjoint', 'table', 'exhaustive'):
        (False, 7, 16, {'S': [0], 'A': [2], 'B': [1, 2], 'C': [3], 'lhs': -5.0, 'rhs': 1.0}),
    ('soc_disjoint', 'table', 'sampled'):
        (False, 12, 16, {'S': [0], 'A': [], 'B': [2, 3], 'C': [1], 'lhs': 5.0, 'rhs': 6.0}),
}


@pytest.mark.parametrize("check, instance, run", sorted(GOLDEN))
def test_reports_match_the_golden_table(check, instance, run):
    inner = GOLDEN_INSTANCES[instance]()
    calls = []
    oracle = SetFunctionOracle(inner.ground_size,
                               lambda s: calls.append(s) or inner.evaluate(s))
    name, extra = GOLDEN_CHECKS[check]
    report = ALL_CHECKS[name](oracle, **GOLDEN_RUNS[run], **extra)
    assert report.property == name
    assert (report.holds, report.instances_checked, len(calls), report.witness) == \
        GOLDEN[check, instance, run]
    assert len(set(calls)) == len(calls)  # each set asked at most once


@pytest.mark.parametrize("check", sorted(set(GOLDEN_CHECKS) - {"normalized"}))
def test_exhaustive_reports_match_the_nested_scan(check):
    name, extra = GOLDEN_CHECKS[check]
    scan = naive_local_check if check in LOCAL_CHECKS else naive_property_check
    oracles = [_table(seed, m) for m in range(1, 5) for seed in range(4)]
    oracles += [SetFunctionOracle(m, lambda s: float(len(s))) for m in (3, 4)]  # every check holds
    oracles += [shifted(_table(seed, 4), -2.0) for seed in range(4)]  # f(empty) = -2
    for oracle in oracles:
        report = ALL_CHECKS[name](oracle, mode="exhaustive", **extra)
        assert (report.holds, report.witness, report.instances_checked) == \
            scan(name, oracle, **extra)


class _Values:
    """f read from a list indexed by bitmask, with no checks: a quantified
    scan asks it tens of thousands of times per table."""

    def __init__(self, values):
        self.ground_size = (len(values) - 1).bit_length()
        self.values = values

    def evaluate(self, ids):
        mask = 0
        for x in ids:
            mask |= 1 << x
        return self.values[mask]


def _near_coverage(seed):
    """A seeded integer weighted coverage on m <= 4 elements with up to two
    sets moved by one.  Of the tables with m > 1, a quarter to a half
    violate each of submodularity, SoC, SoC on disjoint sets and Nemhauser's
    inequality, which a table with m = 1 can violate too, and about a fifth
    violate the redundancy bound, which no table with m = 1 does."""
    rng = random.Random(seed)
    m = 1 + seed % 4
    weights = [rng.randint(1, 3) for _ in range(2 * m)]
    covers = [{u for u in range(2 * m) if rng.random() < 0.4} for _ in range(m)]
    values = []
    for mask in range(1 << m):
        covered = set().union(*(covers[x] for x in range(m) if mask >> x & 1))
        values.append(float(sum(weights[u] for u in covered)))
    for _ in range(rng.choice((0, 1, 1, 2))):
        values[rng.randrange(1, 1 << m)] += rng.choice((-1.0, 1.0))
    return _Values(values)


@pytest.mark.parametrize("check", LOCAL_CHECKS)
def test_local_forms_agree_with_the_quantified_definitions(check):
    name, extra = GOLDEN_CHECKS[check]
    _, keep, violation = PROPERTIES[name]
    violated = 0
    for seed in range(1000):
        oracle = _near_coverage(seed)
        report = ALL_CHECKS[name](oracle, mode="exhaustive", **extra)
        assert report.form == "local"
        assert report.holds == naive_property_check(name, oracle, **extra)[0], seed
        if report.holds:
            continue
        violated += 1
        # the local witness is a violating tuple of the quantified definition
        w = report.witness
        masks = {key: sum(1 << e for e in w[key]) for key in "SABCT" if key in w}
        if name == "submodular":
            t = (masks["B"], w["x"], masks["A"])
        elif name == "nemhauser_inequality":
            t = (masks["S"], masks["T"])
        elif name == "pairwise_redundancy_bound":
            t = (masks["A"], masks["B"], masks["C"])
            assert len(w["C"]) == 1  # C = {c}
        else:
            t = (masks["B"], masks["A"], masks["C"], masks["S"])
            if extra:  # require_disjoint: S outside B u C
                assert not t[3] & (t[0] | t[2])
        assert keep(*t)
        assert violation(lambda mask: oracle.values[mask], *t) == w
    # of 1000 tables, 750 of them with m > 1; 142 violate the redundancy bound
    low, high = (100, 300) if name == "pairwise_redundancy_bound" else (150, 400)
    assert low <= violated <= high


@pytest.mark.parametrize("m", range(1, 9))
def test_exhaustive_local_checks_walk_pairs_and_triples(m, monkeypatch):
    calls = []  # every check holds on |S|
    oracle = SetFunctionOracle(m, lambda s: calls.append(s) or float(len(s)))
    pairs, triples = comb(m, 2) << m >> 2, comb(m, 3) << m >> 3
    expected = {"monotone": m << m >> 1, "marginal_lower_bound": m << m >> 1,
                "submodular": pairs, "supermodularity_of_conditioning": pairs + triples,
                "soc_disjoint": triples,
                "pairwise_redundancy_bound": m * 3 ** (m - 1),
                "nemhauser_inequality": (m << m >> 1) + pairs}
    for check, count in expected.items():
        name, extra = GOLDEN_CHECKS[check]
        report = ALL_CHECKS[name](oracle, mode="exhaustive", **extra)
        assert (report.holds, report.instances_checked) == (True, count)
        # the walk the checker states is the one it takes: auto enumerates it
        # at a limit of exactly that many, when the table fits too, and one
        # less does not fit
        if count >= 1 << m:
            monkeypatch.setattr(validation, "ENUMERATION_LIMIT", count)
            assert ALL_CHECKS[name](oracle, **extra).mode == "exhaustive"
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", count - 1)
        calls.clear()
        with pytest.raises(InstanceTooLarge, match=f"needs {count} tuples"):
            ALL_CHECKS[name](oracle, mode="exhaustive", **extra)
        assert calls == []
        monkeypatch.undo()


@st.composite
def integer_tables(draw):
    """f by bitmask on m <= 6 elements: a modular table with non-negative
    integer weights, on which every check holds, or that table with some
    sets moved by a small integer."""
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    values = [float(sum(w for x, w in enumerate(weights) if mask >> x & 1))
              for mask in range(1 << m)]
    moves = draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.integers(-3, 3)),
                          max_size=4))
    for mask, move in moves:
        values[mask] += move
    return _Values(values)


@settings(max_examples=150, deadline=None)
@given(integer_tables(), st.integers(0, 2**32), st.integers(1, 200))
def test_sampled_reports_match_the_reference_sampler(oracle, seed, samples):
    for check in sorted(set(GOLDEN_CHECKS) - {"normalized"}):
        name, extra = GOLDEN_CHECKS[check]
        report = ALL_CHECKS[name](oracle, mode="sampled", samples=samples, seed=seed, **extra)
        assert (report.holds, report.witness, report.instances_checked) == \
            naive_sampled_check(name, oracle, samples, seed, **extra), check


@pytest.mark.parametrize("seed", [0, 1, 5, 9001])
@pytest.mark.parametrize("m", range(1, 8))
def test_sampled_checks_judge_the_reference_draws_in_order(m, seed, monkeypatch):
    """Each checker's quantified domain, sampled through _run with a
    violation that records and never fires, judges exactly the tuples the
    reference draws with getrandbits(m) & mask and rng.choice(outside), in
    order: the degenerate draws that stop early read the same random words
    and are skipped alike, at a sample count below, at and across a batch."""
    oracle = SetFunctionOracle(m, lambda s: float(len(s)))
    run = verify._run
    for check in sorted(set(GOLDEN_CHECKS) - {"normalized"}):
        name, extra = GOLDEN_CHECKS[check]
        quantified = []
        monkeypatch.setattr(verify, "_run", lambda *args: quantified.append(args[6]))
        ALL_CHECKS[name](oracle, **extra)
        monkeypatch.undo()
        ((domain, _),) = quantified
        for samples in (1, 256, 513):
            judged = []
            report = run(name, oracle, 0, "sampled", samples, seed,
                         (domain, lambda at, t: judged.append(t)))
            expected = list(naive_sampled_draws(name, m, samples, seed, **extra))
            assert judged == expected, (check, samples)
            assert (report.holds, report.instances_checked) == (True, len(expected))


def test_a_sampled_check_holds_o1_memory_in_samples():
    oracle = build_modular(ModularSpec([1.0, 2.0, 3.0]))
    tracemalloc.start()
    try:
        report = check_monotone(oracle, samples=10**6, mode="sampled")
        _, peak = tracemalloc.get_traced_memory()
        # on 40 elements nearly every drawn mask is new: the draws still
        # keep the outside ids of a bounded number of them
        tracemalloc.reset_peak()
        for _ in verify._draws(verify.SINGLES, 20_000, random.Random(0), 40):
            pass
        _, peak_40 = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a draw of all three elements leaves no x outside it: 1/8 are skipped
    assert report.holds and 850_000 < report.instances_checked < 900_000
    assert peak < 1 << 20 and peak_40 < 1 << 20


def test_a_sampled_check_lists_each_masks_outside_ids_once(monkeypatch):
    listed = []
    every = verify._every
    monkeypatch.setattr(verify, "_every",
                        lambda kind, mask, m: listed.append(mask) or every(kind, mask, m))
    oracle = SetFunctionOracle(4, lambda s: float(len(s)))
    for check in (check_monotone, check_submodular, check_marginal_lower_bound):
        listed.clear()
        assert check(oracle, samples=2000, mode="sampled").holds
        assert 0 < len(listed) == len(set(listed)), check
