"""Greedy strategies, traces, query budgets, and the brute-force reference."""

import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsub import (
    AdversarialSpec,
    CardinalityTooLarge,
    CountingOracle,
    DuplicateElement,
    InstanceTooLarge,
    ModularSpec,
    NonFiniteValue,
    Selection,
    SetFunctionOracle,
    UnknownElement,
    WeightedCoverageSpec,
    audit_trace,
    brute_force_optimal,
    build_adversarial,
    build_modular,
    build_weighted_coverage,
    check_monotone,
    greedy_full,
    greedy_k_wise_optimistic,
    greedy_optimistic,
    greedy_pessimistic,
    greedy_uninformed,
    post_hoc_bound,
    run_algorithm,
    trace_from_dict,
)
from pairsub.algorithms import PAIRWISE_ALGORITHMS

from _reference import (
    naive_greedy_k_wise,
    naive_greedy_optimistic,
    naive_greedy_pessimistic,
    naive_post_hoc_bound,
)
from _synth import city_oracle, random_soc_oracle


@pytest.fixture
def chain_coverage():
    return build_weighted_coverage(
        WeightedCoverageSpec({1: 1, 2: 1, 3: 1, 4: 1}, [{1, 2}, {2, 3}, {3, 4}])
    )


@pytest.fixture
def modular312():
    return build_modular(ModularSpec([3, 1, 2]))


@pytest.fixture
def adversarial():
    return build_adversarial(
        AdversarialSpec(V=list(range(6)), V_star=list(range(6, 10)), k=2)
    )


class TestGreedyFull:
    def test_hand_greedy(self, chain_coverage):
        trace = greedy_full(chain_coverage, 2)
        assert trace.selected_order == [0, 2]
        assert chain_coverage.evaluate(trace.final_set) == 4.0

    def test_modular_top_weights(self, modular312):
        assert greedy_full(modular312, 2).selected_order == [0, 2]

    def test_n_equals_m_is_permutation(self, chain_coverage):
        trace = greedy_full(chain_coverage, 3)
        assert sorted(trace.selected_order) == [0, 1, 2]

    def test_n_too_large(self, chain_coverage):
        with pytest.raises(CardinalityTooLarge):
            greedy_full(chain_coverage, 4)

    def test_estimates_non_increasing(self):
        rng = random.Random(17)
        for _ in range(10):
            oracle = random_soc_oracle(rng, 9)
            trace = greedy_full(oracle, 6)
            values = [s.estimate for s in trace.selections]
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-9


class TestGreedyUninformed:
    def test_modular(self, modular312):
        assert greedy_uninformed(modular312, 2).selected_order == [0, 2]

    def test_tie_break_by_id(self):
        oracle = build_modular(ModularSpec([1, 1, 1, 1]))
        assert greedy_uninformed(oracle, 3).selected_order == [0, 1, 2]

    def test_coverage_all_equal_singletons(self, chain_coverage):
        trace = greedy_uninformed(chain_coverage, 3)
        assert trace.selected_order == [0, 1, 2]

    def test_only_singleton_queries(self, chain_coverage):
        counts = greedy_uninformed(chain_coverage, 3).query_counts
        assert counts.size1 == 3 and counts.size2 == 0 and counts.other == 0


class TestGreedyOptimistic:
    def test_hand_simulation(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        assert trace.selected_order == [0, 2, 1]
        assert [s.estimate for s in trace.selections] == [2.0, 2.0, 1.0]

    def test_modular_matches_full(self, modular312):
        assert (
            greedy_optimistic(modular312, 3).selected_order
            == greedy_full(modular312, 3).selected_order
        )

    def test_adversarial_worst_case(self, adversarial):
        trace = greedy_optimistic(adversarial.restricted(2), 4)
        assert adversarial.evaluate(trace.final_set) == 2.0


class TestGreedyPessimistic:
    def test_hand_simulation(self, chain_coverage):
        trace = greedy_pessimistic(chain_coverage, 2)
        assert trace.selected_order == [0, 2]

    def test_modular_matches_full(self, modular312):
        assert (
            greedy_pessimistic(modular312, 3).selected_order
            == greedy_full(modular312, 3).selected_order
        )

    def test_argmax_over_negative_estimates(self):
        # three copies of a unit element plus one tiny element: after two
        # copies are in, the third copy's lower estimate is -1 and the tiny
        # element's is its own value; with all copies selected first the
        # remaining estimates are negative and the max (least bad) wins.
        oracle = build_weighted_coverage(
            WeightedCoverageSpec({1: 1}, [{1}, {1}, {1}])
        )
        trace = greedy_pessimistic(oracle, 3)
        assert trace.selected_order == [0, 1, 2]
        assert trace.selections[2].estimate == -1.0


class TestGreedyKWise:
    def test_k2_identical_to_optimistic(self):
        rng = random.Random(4)
        for _ in range(8):
            oracle = random_soc_oracle(rng, 8)
            a = greedy_optimistic(oracle, 5)
            b = greedy_k_wise_optimistic(oracle, 5, 2)
            assert a.selected_order == b.selected_order
            assert [s.estimate for s in a.selections] == [
                s.estimate for s in b.selections
            ]

    def test_k3_hand_simulation(self, chain_coverage):
        trace = greedy_k_wise_optimistic(chain_coverage, 3, 3)
        assert trace.selected_order == [0, 2, 1]
        assert trace.selections[2].estimate == 0.0

    def test_k_above_n_matches_full(self):
        rng = random.Random(6)
        for _ in range(8):
            oracle = random_soc_oracle(rng, 8)
            full = greedy_full(oracle, 4)
            kwise = greedy_k_wise_optimistic(oracle, 4, 6)
            assert full.selected_order == kwise.selected_order

    def test_records_k(self, chain_coverage):
        assert greedy_k_wise_optimistic(chain_coverage, 2, 3).k == 3

    def test_ties_go_to_the_lowest_remaining_id(self):
        # element 2 goes first; the tied rest follow in ascending id order
        oracle = build_modular(ModularSpec([1.0, 1.0, 2.0, 1.0, 1.0]))
        trace = greedy_k_wise_optimistic(oracle, 4, 3)
        assert trace.selected_order == [2, 0, 1, 3]
        assert [s.estimate for s in trace.selections] == [2.0, 1.0, 1.0, 1.0]

    def test_k_below_two(self, chain_coverage):
        with pytest.raises(ValueError):
            greedy_k_wise_optimistic(chain_coverage, 2, 1)

    def test_equals_from_scratch_reference_and_its_count(self):
        rng = random.Random(29)
        oracles = [random_soc_oracle(rng, rng.randint(3, 9)) for _ in range(12)]
        oracles.append(city_oracle(seed=8, count=25))
        table = {0: 0.0}
        for mask in range(1, 1 << 6):  # not submodular
            table[mask] = bin(mask).count("1") + rng.uniform(0.0, 0.5)
        oracles.append(SetFunctionOracle(6, lambda s: table[sum(1 << x for x in s)]))
        for oracle in oracles:
            m = oracle.ground_size
            n = min(m, 6)
            for k in (2, 3, 4):
                trace = greedy_k_wise_optimistic(oracle, n, k)
                ref_sel, ref_est = naive_greedy_k_wise(oracle, n, k)
                assert trace.selected_order == ref_sel
                assert [s.estimate for s in trace.selections] == ref_est
                # m singletons, then per pick i < n each new A (f(A) unless
                # A is the pick's own singleton, plus one f(A + x) per
                # remaining candidate)
                expected = m + sum(math.comb(i - 1, s) * ((s > 0) + m - i)
                                   for i in range(1, n)
                                   for s in range(min(k - 2, i - 1) + 1))
                assert trace.query_counts.total == expected
                if k == 2:
                    assert expected == greedy_optimistic(oracle, n).query_counts.total


class TestBruteForce:
    def test_coverage(self, chain_coverage):
        assert brute_force_optimal(chain_coverage, 2) == ([0, 2], 4.0)

    def test_modular(self, modular312):
        assert brute_force_optimal(modular312, 2) == ([0, 2], 5.0)

    def test_adversarial_pairs_all_tie(self):
        oracle = build_adversarial(AdversarialSpec(V=[0, 1, 2], V_star=[3, 4], k=2))
        best, value = brute_force_optimal(oracle, 2)
        assert value == 2.0
        assert best == [0, 1]  # lexicographically smallest of the tied pairs

    def test_limit(self, chain_coverage):
        with pytest.raises(InstanceTooLarge):
            brute_force_optimal(chain_coverage, 2, limit=2)

    def test_n_above_m(self, chain_coverage):
        with pytest.raises(CardinalityTooLarge):
            brute_force_optimal(chain_coverage, 4)


ARGMAX_STRATEGIES = {
    "full": greedy_full,
    "optimistic": greedy_optimistic,
    "pessimistic": greedy_pessimistic,
    "uninformed": greedy_uninformed,
    "k_wise": lambda oracle, n: greedy_k_wise_optimistic(oracle, n, 3),
}


@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus_inf"])
@pytest.mark.parametrize("strategy", ARGMAX_STRATEGIES.values(), ids=ARGMAX_STRATEGIES.keys())
def test_no_value_above_minus_inf_is_a_typed_error(strategy, value):
    # f(empty) = 0 keeps every marginal the full greedy asks at value
    oracle = SetFunctionOracle(3, lambda s: value if s else 0.0)
    with pytest.raises(NonFiniteValue, match=f"candidate 0 has {value}"):
        strategy(oracle, 2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus_inf"])
def test_full_greedy_with_no_marginal_above_minus_inf_is_a_typed_error(value, n):
    oracle = SetFunctionOracle(3, lambda s: value if s else 0.0)
    with pytest.raises(NonFiniteValue, match=f"candidate 0 has {value}"):
        greedy_full(oracle, n)


def test_result_records_are_slotted(chain_coverage):
    run = greedy_optimistic(chain_coverage, 2)
    records = (run, run.selections[0], run.query_counts,
               post_hoc_bound(run.selected_order, chain_coverage),
               check_monotone(chain_coverage))
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


class TestQueryBudget:
    def test_pairwise_counts_within_bound(self):
        rng = random.Random(23)
        for _ in range(10):
            m = rng.randint(5, 20)
            n = rng.randint(1, min(8, m))
            oracle = random_soc_oracle(rng, m)
            # every remaining candidate is asked after each pick but the
            # last: m singletons plus m-i pairs after pick i
            pairs = sum(m - i for i in range(1, n))
            for runner in (greedy_optimistic, greedy_pessimistic):
                counts = runner(oracle, n).query_counts
                assert counts.other == 0
                assert counts.size1 + counts.size2 <= m * (n + 1)
                assert (counts.size1, counts.size2) == (m, pairs)

    def test_pairwise_algorithms_run_on_budget_two_oracle(self):
        rng = random.Random(29)
        oracle = random_soc_oracle(rng, 10).restricted(2)
        for name in PAIRWISE_ALGORITHMS:
            trace = run_algorithm(name, oracle, 5)
            assert len(trace.selections) == 5

    def test_full_greedy_needs_more_than_pairwise(self):
        rng = random.Random(31)
        oracle = random_soc_oracle(rng, 8).restricted(2)
        from pairsub import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            greedy_full(oracle, 4)


class TestIncrementalEqualsNaive:
    def test_selections_and_estimates_match(self):
        rng = random.Random(101)
        for _ in range(30):
            m = rng.randint(4, 30)
            n = rng.randint(1, min(10, m))
            oracle = random_soc_oracle(rng, m)
            fast = greedy_optimistic(oracle, n)
            ref_sel, ref_est = naive_greedy_optimistic(oracle, n)
            assert fast.selected_order == ref_sel
            assert [s.estimate for s in fast.selections] == ref_est
            fast = greedy_pessimistic(oracle, n)
            ref_sel, ref_est = naive_greedy_pessimistic(oracle, n)
            assert fast.selected_order == ref_sel
            assert [s.estimate for s in fast.selections] == ref_est


@st.composite
def pair_tables(draw):
    """A budget-2 oracle read from a table of small integers.

    Nothing ties pair values to singletons, so the function is neither
    submodular nor monotone in general, and values tie often.
    """
    m = draw(st.integers(min_value=2, max_value=8))
    values = st.integers(min_value=0, max_value=5).map(float)
    table = {frozenset(): 0.0}
    for x in range(m):
        table[frozenset((x,))] = draw(values)
        for y in range(x):
            table[frozenset((x, y))] = draw(values)
    n = draw(st.integers(min_value=1, max_value=m))
    return SetFunctionOracle(m, table.__getitem__, budget=2, name="table"), n


@settings(max_examples=200, deadline=None)
@given(pair_tables(), st.randoms(use_true_random=False))
def test_optimistic_and_post_hoc_equal_reference_on_any_pair_table(case, rng):
    oracle, n = case
    fast = greedy_optimistic(oracle, n)
    assert (fast.selected_order, [s.estimate for s in fast.selections]) == (
        naive_greedy_optimistic(oracle, n))
    solution = rng.sample(range(oracle.ground_size), n)
    report = post_hoc_bound(solution, oracle)
    assert (report.alphas, report.gamma) == naive_post_hoc_bound(oracle, solution)


class TestTraces:
    def test_determinism(self, chain_coverage):
        a = greedy_optimistic(chain_coverage, 3)
        b = greedy_optimistic(chain_coverage, 3)
        assert a.to_json() == b.to_json()

    def test_selections_distinct_and_sized(self):
        rng = random.Random(37)
        oracle = random_soc_oracle(rng, 9)
        trace = greedy_pessimistic(oracle, 6)
        chosen = trace.selected_order
        assert len(chosen) == 6 == len(set(chosen))
        assert trace.final_set == sorted(chosen)

    def test_json_schema_round_trip(self, chain_coverage):
        trace = greedy_k_wise_optimistic(chain_coverage, 2, 3)
        doc = json.loads(trace.to_json())
        assert set(doc) == {
            "algorithm", "n", "selections", "true_marginals",
            "final_set", "query_counts", "k",
        }
        assert doc["query_counts"] == {
            "size1": trace.query_counts.size1,
            "size2": trace.query_counts.size2,
            "other": trace.query_counts.other,
        }
        back = trace_from_dict(doc)
        assert back.selected_order == trace.selected_order
        assert back.k == 3

    def test_audit_fills_true_marginals(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        assert trace.true_marginals is None
        audited = audit_trace(trace, chain_coverage)
        assert audited.true_marginals == [2.0, 2.0, 0.0]
        # audit must not touch the original query log
        assert audited.query_counts is trace.query_counts

    def test_audit_asks_each_prefix_once(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 3)
        view = CountingOracle(chain_coverage)
        audit_trace(trace, view)
        assert view.counts.total == 3 + 1
        assert view.counts.to_dict() == {"size1": 1, "size2": 1, "other": 2}

    def test_audit_equals_the_marginal_queries(self):
        rng = random.Random(19)
        oracles = [random_soc_oracle(rng, 8) for _ in range(12)] + [city_oracle(count=25)]
        for oracle in oracles:
            trace = greedy_optimistic(oracle, 6)
            order = trace.selected_order
            expected = [oracle.marginal(x, order[:i]) for i, x in enumerate(order)]
            assert audit_trace(trace, oracle).true_marginals == expected

    def test_audit_checks_the_order(self, chain_coverage):
        trace = greedy_optimistic(chain_coverage, 2)
        repeated = replace(trace, selections=[*trace.selections, trace.selections[0]])
        with pytest.raises(DuplicateElement, match="solution repeats an element"):
            audit_trace(repeated, chain_coverage)
        unknown = replace(trace, selections=[Selection(1, 7, 1.0)])
        with pytest.raises(UnknownElement):
            audit_trace(unknown, chain_coverage)

    def test_run_algorithm_dispatch(self, chain_coverage):
        trace = run_algorithm("optimistic", chain_coverage, 2)
        assert trace.algorithm == "optimistic"
        with pytest.raises(ValueError):
            run_algorithm("optimistic", chain_coverage, 2, k=3)
        with pytest.raises(ValueError):
            run_algorithm("k_wise_optimistic", chain_coverage, 2)
        with pytest.raises(ValueError):
            run_algorithm("simulated_annealing", chain_coverage, 2)
