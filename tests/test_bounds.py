"""Approximation factors, guarantees, curvatures, and the post-hoc certificate."""

import json
import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from pairsub import (
    AdversarialSpec,
    CountingOracle,
    DuplicateElement,
    InstanceTooLarge,
    InvalidAlpha,
    InvalidArgument,
    InvalidCurvature,
    ModularSpec,
    NonFiniteValue,
    ProbabilisticCoverageSpec,
    SetFunctionOracle,
    TraceMismatch,
    WeightedCoverageSpec,
    alphas_k_wise,
    alphas_optimistic,
    alphas_pessimistic,
    bound_from_alphas,
    brute_force_optimal,
    build_adversarial,
    build_modular,
    build_probabilistic_coverage,
    build_weighted_coverage,
    check_monotone,
    greedy_full,
    greedy_k_wise_optimistic,
    greedy_optimistic,
    greedy_pessimistic,
    k_cardinality_curvature,
    k_marginal_curvature,
    post_hoc_bound,
    traditional_curvature,
)
from pairsub import bounds, validation

from _reference import (
    naive_k_cardinality_curvature,
    naive_post_hoc_bound,
    naive_traditional_curvature,
)
from _synth import city_oracle, random_soc_oracle

INF = math.inf
ONE_MINUS_1_OVER_E = 1.0 - math.exp(-1.0)


class TestBoundFromAlphas:
    def test_classical_greedy_case(self):
        assert bound_from_alphas([1, 1, 1], 3) == pytest.approx(0.632121, abs=1e-6)

    def test_vacuous_factors(self):
        assert bound_from_alphas([INF, INF], 2) == 0.0

    def test_mixed_factors(self):
        assert bound_from_alphas([1, 2], 2) == pytest.approx(0.527633, abs=1e-6)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(InvalidAlpha):
            bound_from_alphas([0.5, 1.0], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bound_from_alphas([1.0], 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_is_refused(self, n):
        with pytest.raises(InvalidArgument) as raised:
            bound_from_alphas([], n)
        assert (type(raised.value), str(raised.value)) == (InvalidArgument,
                                                           f"n must be >= 1, got {n}")

    @pytest.mark.parametrize("call, n", [
        (lambda: bound_from_alphas([1.0, 1.0], 2.0), 2.0),
        (lambda: bound_from_alphas([1.0], True), True),
        (lambda: alphas_pessimistic(0.5, 2.0), 2.0),
    ], ids=["float", "bool", "pessimistic_float"])
    def test_n_that_is_not_an_int_is_refused(self, call, n):
        with pytest.raises(InvalidArgument) as raised:
            call()
        assert (type(raised.value), str(raised.value)) == (
            InvalidArgument, f"n must be an integer, got {n!r}")

    def test_range(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randint(1, 10)
            alphas = [rng.choice([1.0, 1.5, 4.0, 100.0, INF]) for _ in range(n)]
            gamma = bound_from_alphas(alphas, n)
            assert 0.0 <= gamma <= ONE_MINUS_1_OVER_E + 1e-12


class TestAlphasOptimistic:
    def test_worked_coverage_run(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        assert alphas_optimistic(trace, chain_coverage) == [1.0, 1.0, INF]

    def test_modular_all_ones(self, modular312):
        trace = greedy_optimistic(modular312, 3)
        assert alphas_optimistic(trace, modular312) == [1.0, 1.0, 1.0]

    def test_first_two_iterations_are_free(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 2)
        assert alphas_optimistic(trace, chain_coverage) == [1.0, 1.0]

    def test_trace_mismatch(self, chain_coverage):
        trace = greedy_full(chain_coverage, 2)
        with pytest.raises(TraceMismatch):
            alphas_optimistic(trace, chain_coverage)

    def test_threshold_reads_the_position_not_the_label(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        relabelled = replace(trace, selections=[replace(s, iteration=1)
                                                for s in trace.selections])
        assert alphas_optimistic(trace, chain_coverage) == [1.0, 1.0, INF]
        assert alphas_optimistic(relabelled, chain_coverage) == [1.0, 1.0, INF]


def near_flat_table(third: float):
    """Singletons 1, pairs 2, the triple 2 + third: monotone within tolerance."""
    values = (0.0, 1.0, 2.0, 2.0 + third)
    return SetFunctionOracle(3, lambda s: values[len(s)])


@pytest.mark.parametrize(("third", "alpha"), [(1e-11, 1.0 / ((2.0 + 1e-11) - 2.0)),
                                              (0.0, INF), (-1e-11, INF)])
def test_audited_factors_follow_the_post_hoc_rule(third, alpha):
    """A third marginal a hair below zero is as vacuous as zero, not a factor of 1."""
    oracle = near_flat_table(third)
    assert check_monotone(oracle).holds
    trace = greedy_optimistic(oracle, 3)
    assert [s.estimate for s in trace.selections] == [1.0, 1.0, 1.0]
    assert alphas_optimistic(trace, oracle) == [1.0, 1.0, alpha]
    assert alphas_k_wise(trace, oracle, 2) == [1.0, 1.0, alpha]


class TestAlphasKWise:
    def test_k_equals_n_all_ones(self, chain_coverage):
        trace = greedy_k_wise_optimistic(chain_coverage, 3, 3)
        assert alphas_k_wise(trace, chain_coverage, 3) == [1.0, 1.0, 1.0]

    def test_k2_matches_optimistic(self):
        rng = random.Random(8)
        for _ in range(6):
            oracle = random_soc_oracle(rng, 8)
            opt = greedy_optimistic(oracle, 5)
            kwise = greedy_k_wise_optimistic(oracle, 5, 2)
            assert alphas_k_wise(kwise, oracle, 2) == alphas_optimistic(opt, oracle)

    def test_accepts_optimistic_trace_at_k2(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        assert alphas_k_wise(trace, chain_coverage, 2) == alphas_optimistic(
            trace, chain_coverage
        )

    def test_mismatched_k(self, chain_coverage):
        trace = greedy_k_wise_optimistic(chain_coverage, 3, 3)
        with pytest.raises(TraceMismatch):
            alphas_k_wise(trace, chain_coverage, 2)

    def test_wrong_algorithm(self, chain_coverage):
        trace = greedy_pessimistic(chain_coverage, 2)
        with pytest.raises(TraceMismatch):
            alphas_k_wise(trace, chain_coverage, 2)


class TestAlphasPessimistic:
    def test_zero_curvature(self):
        assert alphas_pessimistic(0.0, 4) == [1.0, 1.0, 1.0, 1.0]

    def test_full_curvature_saturates(self):
        assert alphas_pessimistic(1.0, 4) == [1.0, 1.0, INF, INF]

    def test_quarter_curvature(self):
        assert alphas_pessimistic(0.25, 4) == [1.0, 1.0, 2.0, 4.0]

    def test_vanishing_denominator_is_vacuous(self):
        """1 - 2*tau_2 is 5e-13 here: the shared factor rule calls that zero."""
        assert alphas_pessimistic((1 - 5e-13) / 2, 3)[2] == INF

    def test_invalid_curvature(self):
        with pytest.raises(InvalidCurvature):
            alphas_pessimistic(1.5, 3)
        with pytest.raises(InvalidCurvature):
            alphas_pessimistic(-0.1, 3)


class TestPostHocBound:
    def test_worked_example(self):
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1, 2: 1, 3: 1}, [{1, 2}, {3}])
        )
        report = post_hoc_bound([0, 1], oracle)
        assert report.alphas == [1.0, 1.0]
        assert report.gamma == pytest.approx(0.632121, abs=1e-6)
        assert report.method == "algorithm1"

    def test_negative_lower_estimate_gives_infinite_factor(self):
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1, 2: 5}, [{1}, {1}, {1}, {2}])
        )
        # after two copies of the unit cover, the third copy has a negative
        # lower estimate while element 3 keeps a positive upper estimate
        report = post_hoc_bound([0, 1, 2], oracle)
        assert report.alphas[2] == INF

    def test_single_best_singleton(self, modular312):
        report = post_hoc_bound([0], modular312)
        assert report.alphas == [1.0]
        assert report.gamma == pytest.approx(ONE_MINUS_1_OVER_E)

    def test_duplicate_rejected(self, modular312):
        with pytest.raises(DuplicateElement):
            post_hoc_bound([0, 0], modular312)

    def test_works_on_budget_two_oracle(self, chain_coverage):
        pairwise = chain_coverage.restricted(2)
        report = post_hoc_bound([0, 2, 1], pairwise)
        assert len(report.alphas) == 3

    def test_matches_from_scratch_reference(self):
        rng = random.Random(53)
        for _ in range(30):
            m = rng.randint(2, 20)
            n = rng.randint(1, min(8, m))
            oracle = random_soc_oracle(rng, m)
            greedy = greedy_optimistic(oracle, n).selected_order
            for solution in (greedy, rng.sample(range(m), n)):
                report = post_hoc_bound(solution, oracle)
                assert (report.alphas, report.gamma) == naive_post_hoc_bound(oracle, solution)

    def test_matches_from_scratch_reference_on_city(self):
        oracle = city_oracle(seed=9, count=60).restricted(2)
        solution = greedy_optimistic(oracle, 6).selected_order
        report = post_hoc_bound(solution, oracle)
        assert (report.alphas, report.gamma) == naive_post_hoc_bound(oracle, solution)

    def test_no_query_after_the_last_factor(self):
        rng = random.Random(59)
        inner = random_soc_oracle(rng, 12)
        asked = []

        def logged(s):
            asked.append(s)
            return inner.evaluate(s)

        oracle = SetFunctionOracle(12, logged, budget=2)
        post_hoc_bound([4], oracle)
        assert sorted(len(s) for s in asked) == [1] * 12
        asked.clear()
        solution = [7, 2, 9, 0]
        post_hoc_bound(solution, oracle)
        pairs = [s for s in asked if len(s) == 2]
        # m-i pairs after pick i, and none after the last
        assert len(pairs) == sum(12 - i for i in range(1, len(solution)))
        assert not [s for s in pairs if solution[-1] in s and not s <= set(solution)]

    def test_empty_solution_refused_before_any_query(self):
        spy = CountingOracle(city_oracle(seed=3, count=10))
        with pytest.raises(InvalidArgument, match="^n must be >= 1, got 0$"):
            post_hoc_bound([], spy)
        assert spy.counts.total == 0

    def test_serialization_uses_inf_string(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        report = post_hoc_bound(trace.selected_order, chain_coverage)
        doc = report.to_dict()
        assert set(doc) == {"method", "alphas", "gamma"}
        assert all(a == "inf" or isinstance(a, float) for a in doc["alphas"])

    def test_serialization_writes_inf_only_for_an_infinite_factor(self):
        report = bounds.BoundReport(alphas=[1.5, math.inf, 2.0], gamma=0.25, method="algorithm1")
        doc = report.to_dict()
        assert doc == {"method": "algorithm1", "alphas": [1.5, "inf", 2.0], "gamma": 0.25}
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc


class TestCurvatures:
    def test_modular_traditional_zero(self, modular312):
        assert traditional_curvature(modular312) == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_traditional_one(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))
        assert traditional_curvature(oracle) == 1.0

    def test_single_element_zero(self):
        oracle = build_modular(ModularSpec([2.0]))
        assert traditional_curvature(oracle) == pytest.approx(0.0, abs=1e-12)

    def test_k_marginal_hand_value(self, chain_coverage):
        assert k_marginal_curvature(chain_coverage, 1, [0, 2], 2) == 1.0

    def test_k_marginal_modular_zero(self, modular312):
        for x in range(3):
            rest = [y for y in range(3) if y != x]
            assert k_marginal_curvature(modular312, x, rest, 2) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_k_marginal_empty_set(self, chain_coverage):
        assert k_marginal_curvature(chain_coverage, 0, (), 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_tau2_adversarial_zero(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3], k=2))
        assert k_cardinality_curvature(oracle, 2) == pytest.approx(0.0, abs=1e-12)

    def test_tau2_modular_zero(self, modular312):
        assert k_cardinality_curvature(modular312, 2) == pytest.approx(0.0, abs=1e-12)

    def test_tau2_duplicated_cover_is_one(self):
        oracle = build_weighted_coverage(WeightedCoverageSpec({1: 1}, [{1}, {1}]))
        assert k_cardinality_curvature(oracle, 2) == 1.0

    def test_tau2_needs_only_pairwise_queries(self):
        rng = random.Random(3)
        oracle = random_soc_oracle(rng, 7).restricted(2)
        assert 0.0 <= k_cardinality_curvature(oracle, 2) <= 1.0

    def test_tau_k_limit_counts_conditioning_sets_exactly(self, monkeypatch):
        oracle = random_soc_oracle(random.Random(4), 7)
        needed = (6 + 15) * 7  # m * (C(6, 1) + C(6, 2)) for k=3
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", needed)
        assert 0.0 <= k_cardinality_curvature(oracle, 3) <= 1.0
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", needed - 1)
        with pytest.raises(InstanceTooLarge, match=f"needs {needed} conditioning sets"):
            k_cardinality_curvature(oracle, 3)

    def test_tau_k_equals_ordered_scan(self):
        rng = random.Random(61)
        oracles = [random_soc_oracle(rng, rng.randint(2, 8)) for _ in range(12)]
        oracles.append(city_oracle(seed=8, count=25))
        # a station that reaches no district, so f(x) = 0, between the others
        spec = city_oracle(seed=9, count=12).spec
        stations = list(spec.probabilities)
        stations.insert(5, {})
        oracles.append(build_probabilistic_coverage(
            ProbabilisticCoverageSpec(spec.demands, stations)))
        for oracle in oracles:
            for k in (2, 3):
                assert k_cardinality_curvature(oracle, k) == naive_k_cardinality_curvature(
                    oracle, k
                )

    def test_traditional_equals_ordered_scan(self):
        rng = random.Random(71)
        oracles = [random_soc_oracle(rng, rng.randint(1, 8)) for _ in range(12)]
        table = {0: 0.0}
        for mask in range(1, 1 << 6):  # not submodular: c lands inside (0, 1)
            table[mask] = bin(mask).count("1") + rng.uniform(0.0, 0.5)
        oracles.append(SetFunctionOracle(6, lambda s: table[sum(1 << x for x in s)]))
        for oracle in oracles:
            assert traditional_curvature(oracle) == naive_traditional_curvature(oracle)

    def test_traditional_is_tau_m(self, monkeypatch):
        oracle = random_soc_oracle(random.Random(73), 7)
        view = CountingOracle(oracle)
        assert traditional_curvature(view) == k_cardinality_curvature(oracle, 7)
        assert view.counts.total == 2**7 - 1
        needed = 7 * (2**6 - 1)  # m * (2^(m-1) - 1) conditioning sets
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", needed)
        assert 0.0 <= traditional_curvature(oracle) <= 1.0
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", needed - 1)
        with pytest.raises(InstanceTooLarge, match=f"needs {needed} conditioning sets"):
            traditional_curvature(oracle)

    def test_tau_k_asks_each_set_once(self):
        oracle = random_soc_oracle(random.Random(67), 7)
        for k in (2, 3, 4):
            view = CountingOracle(oracle)
            k_cardinality_curvature(view, k)
            assert view.counts.total == sum(math.comb(7, s) for s in range(1, k + 1))
            assert (view.counts.size1, view.counts.size2) == (7, math.comb(7, 2))

    def test_tau_k_refusal_allocates_nothing(self):
        oracle = build_modular(ModularSpec([1.0] * 5000))
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLarge):
                k_cardinality_curvature(oracle, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_refusal_of_a_count_too_long_to_print(self):
        # C(20000, 10000) and m * (2^(m-1) - 1) have more digits than int-to-str allows
        oracle = build_modular(ModularSpec([1.0] * 20000))
        with pytest.raises(InstanceTooLarge, match="tau_20000 scan needs"):
            traditional_curvature(oracle)
        with pytest.raises(InstanceTooLarge, match=r"C\(20000, 10000\) needs at least 2\^"):
            brute_force_optimal(oracle, 10000)

    def test_ordering_c_dominates(self):
        rng = random.Random(12)
        for _ in range(10):
            oracle = random_soc_oracle(rng, 7)
            c = traditional_curvature(oracle)
            assert c >= k_cardinality_curvature(oracle, 2) - 1e-9
            assert c >= k_cardinality_curvature(oracle, 3) - 1e-9
            m = oracle.ground_size
            x = rng.randrange(m)
            s = [y for y in range(m) if y != x and rng.random() < 0.5]
            c2 = k_marginal_curvature(oracle, x, s, 2)
            assert c >= c2 - 1e-9
            for k in (3, 4):
                assert c2 >= k_marginal_curvature(oracle, x, s, k) - 1e-9


def nan_pair_oracle(pair=frozenset({0, 2})):
    """Modular weights 4, 3, 2, 1 on four elements, except that f(pair) is NaN."""
    weights = (4.0, 3.0, 2.0, 1.0)
    return SetFunctionOracle(4, lambda s: math.nan if s == pair else sum(weights[x] for x in s))


class TestNaNAnswers:
    """A NaN compares false with everything, so it must be refused by name
    rather than fall out of a max or a min as if it were not there."""

    @pytest.mark.parametrize(("numerator", "denominator"),
                             [(5.0, math.nan), (math.nan, 5.0), (math.nan, math.nan),
                              (math.nan, 0.0), (0.0, math.nan)])
    def test_factor_refuses_a_nan_operand(self, numerator, denominator):
        with pytest.raises(NonFiniteValue, match="no approximation factor"):
            bounds._factor(numerator, denominator)

    def test_certificate_refuses_a_nan_pair(self):
        # the NaN of f({0, 2}) reaches only the lower estimate of 2, the third pick
        with pytest.raises(NonFiniteValue, match="over nan"):
            post_hoc_bound([0, 1, 2], nan_pair_oracle().restricted(2))

    def test_certificate_before_the_nan_is_read_is_unchanged(self):
        report = post_hoc_bound([0, 1], nan_pair_oracle().restricted(2))
        assert report.alphas == [1.0, 1.0]

    def test_bound_refuses_a_nan_factor(self):
        with pytest.raises(InvalidAlpha, match="approximation factor nan is not a number"):
            bound_from_alphas([math.nan], 1)
        with pytest.raises(InvalidAlpha):
            bound_from_alphas([1.0, math.nan, INF], 3)

    def test_tau_2_refuses_a_nan_pair(self):
        with pytest.raises(NonFiniteValue, match=r"f\(\[0, 2\]\) is nan"):
            k_cardinality_curvature(nan_pair_oracle(), 2)

    def test_tau_2_with_every_pair_nan_is_refused_not_zero(self):
        oracle = SetFunctionOracle(3, lambda s: math.nan if len(s) == 2 else float(len(s)))
        with pytest.raises(NonFiniteValue, match=r"f\(\[0, 1\]\) is nan"):
            k_cardinality_curvature(oracle, 2)

    def test_tau_2_refuses_a_nan_singleton(self):
        oracle = SetFunctionOracle(3, lambda s: math.nan if s == {1} else float(len(s)))
        with pytest.raises(NonFiniteValue, match=r"f\(\[1\]\) is nan"):
            k_cardinality_curvature(oracle, 2)

    def test_tau_3_refuses_a_nan_triple(self):
        oracle = nan_pair_oracle(frozenset({1, 2, 3}))
        assert k_cardinality_curvature(oracle, 2) == 0.0  # modular below size 3
        with pytest.raises(NonFiniteValue, match=r"f\(\[1, 2, 3\]\) is nan"):
            k_cardinality_curvature(oracle, 3)

    def test_k_marginal_curvature_refuses_a_nan_marginal(self):
        # max(0.0, nan) is 0.0, so a clamp alone would report no curvature
        oracle = nan_pair_oracle(frozenset({0, 1, 2}))
        assert k_marginal_curvature(oracle, 0, [1, 3], 2) == 0.0  # modular elsewhere
        with pytest.raises(NonFiniteValue, match=r"c_2\(0\|\[1, 2\]\) is undefined: f\(x\|S\) is nan"):
            k_marginal_curvature(oracle, 0, [1, 2], 2)

    def test_k_marginal_curvature_refuses_a_nan_upper_estimate(self):
        # f({0}) is NaN, and no finite f(0|A) compares below it, so the upper
        # estimate stays NaN while f(0|S) = 9 - 5 is finite
        oracle = nan_pair_oracle(frozenset({0}))
        assert oracle.marginal(0, [1, 2]) == 4.0
        with pytest.raises(NonFiniteValue, match=r"f\(x\|S\) is 4\.0 and its upper estimate nan"):
            k_marginal_curvature(oracle, 0, [1, 2], 2)

    def test_infinite_answers_of_both_signs_are_not_nan(self):
        # +inf and -inf in one column sum to NaN, yet no answer is NaN
        values = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
                  frozenset({2}): 1.0, frozenset({0, 1}): INF, frozenset({0, 2}): -INF,
                  frozenset({1, 2}): 2.0}
        assert k_cardinality_curvature(SetFunctionOracle(3, values.__getitem__), 2) == 1.0


class TestSoundnessAndValidity:
    def test_alpha_producers_dominate_greedy_max(self):
        rng = random.Random(55)
        for _ in range(25):
            m = rng.randint(5, 12)
            n = rng.randint(3, min(6, m))
            oracle = random_soc_oracle(rng, m)
            tau2 = k_cardinality_curvature(oracle, 2)
            cases = []
            opt = greedy_optimistic(oracle, n)
            cases.append((opt, alphas_optimistic(opt, oracle)))
            kw = greedy_k_wise_optimistic(oracle, n, 3)
            cases.append((kw, alphas_k_wise(kw, oracle, 3)))
            pes = greedy_pessimistic(oracle, n)
            cases.append((pes, alphas_pessimistic(tau2, n)))
            cases.append((pes, post_hoc_bound(pes.selected_order, oracle).alphas))
            for trace, alphas in cases:
                prior = []
                for sel, alpha in zip(trace.selections, alphas):
                    if alpha != INF:
                        greedy_max = max(
                            oracle.marginal(x, prior)
                            for x in range(m)
                            if x not in prior
                        )
                        assert alpha * oracle.marginal(sel.element, prior) >= (
                            greedy_max - 1e-9
                        )
                    prior.append(sel.element)

    def test_certificates_hold_against_brute_force(self):
        rng = random.Random(77)
        for _ in range(25):
            m = rng.randint(5, 10)
            n = rng.randint(2, min(5, m))
            oracle = random_soc_oracle(rng, m)
            _, optimal = brute_force_optimal(oracle, n)
            trace = greedy_optimistic(oracle, n)
            value = oracle.evaluate(trace.final_set)
            gamma_2 = bound_from_alphas(alphas_optimistic(trace, oracle), n)
            gamma_1 = post_hoc_bound(trace.selected_order, oracle).gamma
            assert value >= gamma_2 * optimal - 1e-9
            assert value >= gamma_1 * optimal - 1e-9

    def test_post_hoc_dominates_corollary4_on_pessimistic_runs(self):
        rng = random.Random(99)
        for _ in range(25):
            m = rng.randint(5, 10)
            n = rng.randint(2, min(6, m))
            oracle = random_soc_oracle(rng, m)
            trace = greedy_pessimistic(oracle, n)
            gamma_alg1 = post_hoc_bound(trace.selected_order, oracle).gamma
            tau2 = k_cardinality_curvature(oracle, 2)
            gamma_cor4 = bound_from_alphas(alphas_pessimistic(tau2, n), n)
            assert gamma_alg1 >= gamma_cor4 - 1e-9

    def test_more_information_strengthens_the_exponent(self):
        def mean_reciprocal(alphas):
            return sum(0.0 if a == INF else 1.0 / a for a in alphas) / len(alphas)

        rng = random.Random(60)
        for _ in range(25):
            m = rng.randint(5, 10)
            n = rng.randint(3, min(6, m))
            oracle = random_soc_oracle(rng, m)
            pairwise = alphas_optimistic(greedy_optimistic(oracle, n), oracle)
            k_wise = alphas_k_wise(greedy_k_wise_optimistic(oracle, n, 3), oracle, 3)
            assert mean_reciprocal(k_wise) >= mean_reciprocal(pairwise) - 1e-9
