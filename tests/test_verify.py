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
        # a monotone draw asks f twice, a submodular draw four times
        for check, per_draw in ((check_monotone, 2), (check_submodular, 4)):
            calls.clear()
            report = check(oracle, samples=200, seed=3, mode="sampled")
            assert report.holds
            assert 0 < report.instances_checked < 200
            assert len(calls) == per_draw * report.instances_checked

    def test_sampled_mode_catches_gross_violation(self):
        report = check_submodular(squared_cardinality(14), samples=500, seed=1)
        assert not report.holds

    def test_reports_serialize(self, coverage):
        import json

        report = check_monotone(coverage)
        doc = json.loads(report.to_json())
        assert set(doc) == {"property", "holds", "witness", "instances_checked"}
