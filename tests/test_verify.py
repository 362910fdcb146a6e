"""Property checkers: witnesses, limits, sampling, and cross-consistency."""

import random

import pytest

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
from pairsub.verify import ALL_CHECKS

from _reference import naive_property_check
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
        oracle = build_modular(ModularSpec([1] * 6))
        with pytest.raises(InstanceTooLarge):
            check_monotone(oracle, exhaustive_limit=4, mode="exhaustive")


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
        first = check_submodular(oracle, samples=200, seed=42)
        second = check_submodular(oracle, samples=200, seed=42)
        assert first.to_dict() == second.to_dict()
        assert first.instances_checked <= 200

    @pytest.mark.parametrize("name", sorted(set(ALL_CHECKS) - {"normalized"}))
    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampling_nothing_is_rejected(self, name, samples):
        oracle = build_modular(ModularSpec([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidArgument):
            ALL_CHECKS[name](oracle, samples=samples, mode="sampled")
        with pytest.raises(InvalidArgument):
            ALL_CHECKS[name](oracle, samples=samples, exhaustive_limit=2)
        assert ALL_CHECKS[name](oracle, samples=samples).holds  # exhaustive, no draws

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

    def test_sampled_mode_catches_gross_violation(self):
        report = check_submodular(squared_cardinality(14), samples=500, seed=1)
        assert not report.holds

    def test_reports_serialize(self, coverage):
        import json

        report = check_monotone(coverage)
        doc = json.loads(report.to_json())
        assert set(doc) == {"property", "holds", "witness", "instances_checked"}


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

# (check, instance, run) -> (holds, instances_checked, oracle calls, witness),
# recorded once and kept: any change to a checker's enumeration order, its
# sampling, its counting or its memo shows here.
GOLDEN = {
    ('normalized', 'coverage', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'coverage', 'exhaustive'):
        (True, 80, 32, None),
    ('monotone', 'coverage', 'sampled'):
        (True, 59, 32, None),
    ('submodular', 'coverage', 'exhaustive'):
        (True, 405, 32, None),
    ('submodular', 'coverage', 'sampled'):
        (True, 58, 32, None),
    ('supermodularity_of_conditioning', 'coverage', 'exhaustive'):
        (True, 32768, 32, None),
    ('supermodularity_of_conditioning', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('pairwise_redundancy_bound', 'coverage', 'exhaustive'):
        (True, 1024, 32, None),
    ('pairwise_redundancy_bound', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'coverage', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'coverage', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'coverage', 'exhaustive'):
        (True, 1024, 32, None),
    ('nemhauser_inequality', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('soc_disjoint', 'coverage', 'exhaustive'):
        (True, 3125, 32, None),
    ('soc_disjoint', 'coverage', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'squared', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'squared', 'exhaustive'):
        (True, 80, 32, None),
    ('monotone', 'squared', 'sampled'):
        (True, 59, 32, None),
    ('submodular', 'squared', 'exhaustive'):
        (False, 6, 32, {'A': [], 'B': [0], 'x': 1, 'marginal_given_A': 1.0, 'marginal_given_B': 3.0}),
    ('submodular', 'squared', 'sampled'):
        (False, 2, 6, {'A': [1, 3], 'B': [0, 1, 3], 'x': 2, 'marginal_given_A': 5.0, 'marginal_given_B': 7.0}),
    ('supermodularity_of_conditioning', 'squared', 'exhaustive'):
        (False, 1058, 32, {'S': [0], 'A': [], 'B': [0], 'C': [1], 'lhs': -2.0, 'rhs': 0.0}),
    ('supermodularity_of_conditioning', 'squared', 'sampled'):
        (False, 1, 8, {'S': [0, 1, 3], 'A': [], 'B': [0, 1, 4], 'C': [2], 'lhs': -6.0, 'rhs': -2.0}),
    ('pairwise_redundancy_bound', 'squared', 'exhaustive'):
        (True, 1024, 32, None),
    ('pairwise_redundancy_bound', 'squared', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'squared', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'squared', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'squared', 'exhaustive'):
        (False, 4, 32, {'S': [], 'T': [0, 1], 'f_T': 4.0, 'bound': 2.0}),
    ('nemhauser_inequality', 'squared', 'sampled'):
        (False, 7, 15, {'S': [], 'T': [1, 3, 4], 'f_T': 9.0, 'bound': 3.0}),
    ('soc_disjoint', 'squared', 'exhaustive'):
        (True, 3125, 32, None),
    ('soc_disjoint', 'squared', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'negated', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'negated', 'exhaustive'):
        (False, 1, 32, {'A': [], 'B': [0], 'f_A': -0.0, 'f_B': -1.0}),
    ('monotone', 'negated', 'sampled'):
        (False, 1, 2, {'A': [0, 1, 4], 'B': [0, 1, 3, 4], 'f_A': -3.0, 'f_B': -4.0}),
    ('submodular', 'negated', 'exhaustive'):
        (True, 405, 32, None),
    ('submodular', 'negated', 'sampled'):
        (True, 58, 32, None),
    ('supermodularity_of_conditioning', 'negated', 'exhaustive'):
        (True, 32768, 32, None),
    ('supermodularity_of_conditioning', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('pairwise_redundancy_bound', 'negated', 'exhaustive'):
        (True, 1024, 32, None),
    ('pairwise_redundancy_bound', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('marginal_lower_bound', 'negated', 'exhaustive'):
        (True, 80, 32, None),
    ('marginal_lower_bound', 'negated', 'sampled'):
        (True, 60, 31, None),
    ('nemhauser_inequality', 'negated', 'exhaustive'):
        (False, 33, 32, {'S': [0], 'T': [], 'f_T': -0.0, 'bound': -1.0}),
    ('nemhauser_inequality', 'negated', 'sampled'):
        (False, 1, 3, {'S': [0, 1, 4], 'T': [3], 'f_T': -1.0, 'bound': -4.0}),
    ('soc_disjoint', 'negated', 'exhaustive'):
        (True, 3125, 32, None),
    ('soc_disjoint', 'negated', 'sampled'):
        (True, 60, 32, None),
    ('normalized', 'table', 'exhaustive'):
        (True, 1, 1, None),
    ('monotone', 'table', 'exhaustive'):
        (False, 8, 16, {'A': [1], 'B': [0, 1], 'f_A': 7.0, 'f_B': 6.0}),
    ('monotone', 'table', 'sampled'):
        (False, 4, 5, {'A': [0, 2, 3], 'B': [0, 1, 2, 3], 'f_A': 9.0, 'f_B': 7.0}),
    ('submodular', 'table', 'exhaustive'):
        (False, 19, 16, {'A': [1], 'B': [0, 1], 'x': 2, 'marginal_given_A': -2.0, 'marginal_given_B': 0.0}),
    ('submodular', 'table', 'sampled'):
        (False, 3, 7, {'A': [1], 'B': [0, 1, 2], 'x': 3, 'marginal_given_A': -1.0, 'marginal_given_B': 1.0}),
    ('supermodularity_of_conditioning', 'table', 'exhaustive'):
        (False, 285, 16, {'S': [2, 3], 'A': [], 'B': [0], 'C': [1], 'lhs': 3.0, 'rhs': 4.0}),
    ('supermodularity_of_conditioning', 'table', 'sampled'):
        (False, 2, 10, {'S': [0, 2, 3], 'A': [3], 'B': [2, 3], 'C': [0, 1], 'lhs': 1.0, 'rhs': 6.0}),
    ('pairwise_redundancy_bound', 'table', 'exhaustive'):
        (False, 107, 16, {'A': [0], 'B': [2, 3], 'C': [1], 'lhs': 6.0, 'rhs': 5.0}),
    ('pairwise_redundancy_bound', 'table', 'sampled'):
        (False, 43, 16, {'A': [2, 3], 'B': [1], 'C': [0], 'lhs': -1.0, 'rhs': -2.0}),
    ('marginal_lower_bound', 'table', 'exhaustive'):
        (True, 32, 16, None),
    ('marginal_lower_bound', 'table', 'sampled'):
        (True, 60, 16, None),
    ('nemhauser_inequality', 'table', 'exhaustive'):
        (False, 19, 16, {'S': [0], 'T': [1], 'f_T': 7.0, 'bound': 6.0}),
    ('nemhauser_inequality', 'table', 'sampled'):
        (False, 2, 6, {'S': [0, 1, 3], 'T': [0, 2], 'f_T': 8.0, 'bound': 7.0}),
    ('soc_disjoint', 'table', 'exhaustive'):
        (False, 93, 16, {'S': [2, 3], 'A': [], 'B': [0], 'C': [1], 'lhs': 3.0, 'rhs': 4.0}),
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
    oracles = [_table(seed, m) for m in range(1, 5) for seed in range(4)]
    oracles += [SetFunctionOracle(m, lambda s: float(len(s))) for m in (3, 4)]  # every check holds
    for oracle in oracles:
        report = ALL_CHECKS[name](oracle, mode="exhaustive", **extra)
        assert (report.holds, report.witness, report.instances_checked) == \
            naive_property_check(name, oracle, **extra)
