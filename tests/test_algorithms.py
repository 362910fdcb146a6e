"""Greedy strategies, traces, query budgets, and the brute-force reference."""

import hashlib
import json
import math
import random
import re
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
    InvalidArgument,
    ModularSpec,
    NonFiniteValue,
    ParseError,
    QueryCounts,
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
from pairsub import bounds, validation
from pairsub.algorithms import PAIRWISE_ALGORITHMS

from _reference import (
    naive_greedy_full,
    naive_greedy_k_wise,
    naive_greedy_optimistic,
    naive_greedy_pessimistic,
    naive_post_hoc_bound,
)
from _synth import city_oracle, no_column, random_soc_oracle, random_weighted_coverage


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

    def test_equals_the_textbook_greedy_on_every_n(self):
        rng = random.Random(43)
        cases = [(random_soc_oracle(rng, m), m) for m in (1, 2, 5, 9, 14)]
        cases.append((city_oracle(seed=12, count=40), 6))
        for oracle, top in cases:
            for n in range(1, top + 1):
                run = greedy_full(oracle, n)
                assert (run.selected_order, [s.estimate for s in run.selections]) == (
                    naive_greedy_full(oracle, n))

    def test_asks_f_of_the_picks_once_per_round(self):
        # f(empty) once, then round i asks one set of size i per remaining
        # candidate and reuses the pick's answer as the next round's f(S)
        rng = random.Random(47)
        for m in (1, 2, 3, 7, 12):
            oracle = random_soc_oracle(rng, m)
            for n in range(1, m + 1):
                expected = QueryCounts()
                expected.record(0)
                for i in range(1, n + 1):
                    expected.record(i, times=m - i + 1)
                counts = greedy_full(oracle, n).query_counts
                assert counts == expected
                assert counts.total == 1 + n * (m + 1) - n * (n + 1) // 2


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

    def test_limit(self, chain_coverage, monkeypatch):
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", 3)  # C(3, 2)
        assert brute_force_optimal(chain_coverage, 2) == ([0, 2], 4.0)
        monkeypatch.setattr(validation, "ENUMERATION_LIMIT", 2)
        with pytest.raises(InstanceTooLarge, match="needs 3 subsets"):
            brute_force_optimal(chain_coverage, 2)

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


@pytest.mark.parametrize("strategy", ARGMAX_STRATEGIES.values(), ids=ARGMAX_STRATEGIES.keys())
def test_a_nan_among_finite_values_is_a_typed_error(strategy):
    # every set holding 1 is NaN, so the first round already ranks a NaN
    oracle = SetFunctionOracle(3, lambda s: math.nan if 1 in s else float(len(s)))
    with pytest.raises(NonFiniteValue, match="candidate 1 has nan"):
        strategy(oracle, 2)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("run", [*ARGMAX_STRATEGIES.values(), brute_force_optimal],
                         ids=[*ARGMAX_STRATEGIES, "brute_force"])
def test_a_cardinality_below_one_is_refused_before_any_query(run, n):
    calls = []
    oracle = SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))
    with pytest.raises(InvalidArgument, match=f"cardinality must be >= 1, got {n}"):
        run(oracle, n)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus_inf"])
def test_full_greedy_with_no_marginal_above_minus_inf_is_a_typed_error(value, n):
    oracle = SetFunctionOracle(3, lambda s: value if s else 0.0)
    with pytest.raises(NonFiniteValue, match=f"candidate 0 has {value}"):
        greedy_full(oracle, n)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus_inf"])
def test_brute_force_with_no_value_above_minus_inf_is_a_typed_error(value, n):
    oracle = SetFunctionOracle(3, lambda s: value)
    last = list(range(3 - n, 3))
    with pytest.raises(NonFiniteValue, match=re.escape(f"candidate {last} has {value}")):
        brute_force_optimal(oracle, n)


@pytest.mark.parametrize(("n", "named"), [(1, [1]), (2, [0, 1])])
def test_brute_force_refuses_a_nan_among_finite_values(n, named):
    # every subset holding 1 is NaN; the finite maximum would be [0, 2]
    oracle = SetFunctionOracle(3, lambda s: math.nan if 1 in s else float(len(s)))
    with pytest.raises(NonFiniteValue, match=re.escape(f"candidate {named} has nan")):
        brute_force_optimal(oracle, n)


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

    @pytest.mark.parametrize("run", [lambda o: greedy_full(o, 3),
                                     lambda o: greedy_k_wise_optimistic(o, 3, 3)],
                             ids=["full", "k_wise_3"])
    def test_sets_of_three_on_a_budget_two_view_are_refused_by_size(self, run):
        from pairsub import BudgetExceeded

        oracle = random_weighted_coverage(random.Random(37), 8).restricted(2)
        for view in (oracle, no_column(oracle)):
            with pytest.raises(BudgetExceeded) as raised:
                run(view)
            assert str(raised.value) == "query of size 3 exceeds information budget 2"


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


def test_a_pessimistic_run_on_a_thousand_covers_is_the_reference():
    """On 1,000 sparse covers, as many candidates as the benchmark folds per
    column, the run picks and estimates as the from-scratch reference, bit
    for bit."""
    rng = random.Random(29)
    weights = {u: rng.uniform(0.1, 2.0) for u in range(4000)}
    covers = [rng.sample(range(4000), 6) for _ in range(1000)]
    oracle = build_weighted_coverage(WeightedCoverageSpec(weights, covers)).restricted(2)
    run = greedy_pessimistic(oracle, 8)
    order, estimates = naive_greedy_pessimistic(oracle, 8)
    assert run.selected_order == order
    assert [s.estimate.hex() for s in run.selections] == [v.hex() for v in estimates]


def _parity_oracles():
    rng = random.Random(137)
    socs = {f"soc{i}": random_soc_oracle(rng, rng.randint(5, 12)) for i in range(10)}
    return {"city": city_oracle(seed=19, count=40), **socs}


PARITY_ORACLES = _parity_oracles()


def _column_digest(oracle, n: int):
    """Selections, estimates (.hex()) and query counts of every strategy and
    bound that asks by column."""
    pairwise = oracle.restricted(2)
    runs = [greedy_full(oracle, n), greedy_uninformed(oracle, n),
            greedy_k_wise_optimistic(oracle, n, 3), greedy_k_wise_optimistic(oracle, n, 4),
            greedy_optimistic(pairwise, n), greedy_pessimistic(pairwise, n)]
    digest = [(r.algorithm, r.selected_order, [s.estimate.hex() for s in r.selections],
               r.query_counts) for r in runs]
    for k in (2, 3):
        view = CountingOracle(oracle.restricted(k))
        digest.append((k, bounds.k_cardinality_curvature(view, k).hex(), view.counts))
    view = CountingOracle(pairwise)
    cert = post_hoc_bound(runs[-1].selected_order, view)
    digest.append(([a.hex() for a in cert.alphas], cert.gamma.hex(), view.counts))
    return digest


@pytest.mark.parametrize("oracle", PARITY_ORACLES.values(), ids=PARITY_ORACLES.keys())
def test_family_columns_and_per_set_fallback_run_alike(oracle):
    m = oracle.ground_size
    n = min(6, m)
    digest = _column_digest(oracle, n)
    assert digest == _column_digest(no_column(oracle), n)
    full_counts = digest[0][3]
    expected = QueryCounts()
    expected.record(0)
    for i in range(1, n + 1):
        expected.record(i, times=m - i + 1)
    assert full_counts == expected
    assert full_counts.total == 1 + n * (m + 1) - n * (n + 1) // 2


def _logged(oracle):
    """The same function and budget with no column, and the list of every set
    asked, in order."""
    asked = []

    def eval_fn(s):
        asked.append(tuple(sorted(s)))
        return oracle._eval(s)

    return SetFunctionOracle(oracle.ground_size, eval_fn, budget=oracle.budget), asked


def _pass_digest(asked, values):
    """The number of sets asked and a hash of those sets, in order, and of values by .hex()."""
    text = repr((asked, [v.hex() for v in values]))
    return len(asked), hashlib.sha256(text.encode()).hexdigest()[:16]


# (instance, n, {pass: digest}); the runs also pin their selections
PASS_PINS = {
    "city": (lambda: city_oracle(seed=9, count=60).restricted(2), 8, {
        "optimistic": ([12, 22, 9, 18, 27, 40, 11, 26], (452, "a4ddd7e5a7da9302")),
        "pessimistic": ([12, 22, 9, 18, 27, 40, 26, 39], (452, "55e0ab53fc1f1cb8")),
        "cert_optimistic": (452, "c84e2d5f103d96c1"),
        "cert_pessimistic": (452, "8afa59f8b489bc82"),
        "cert_random": (452, "e9fb1210095f0583"),
    }),
    "coverage": (lambda: random_weighted_coverage(random.Random(23), 50).restricted(2), 10, {
        "optimistic": ([21, 19, 9, 32, 7, 49, 26, 29, 40, 46], (455, "5080f13f24c05134")),
        "pessimistic": ([21, 19, 39, 34, 28, 11, 31, 33, 43, 15], (455, "a9fecfde3de31c40")),
        "cert_optimistic": (455, "d551313e58375852"),
        "cert_pessimistic": (455, "85280c3ae9cc665c"),
        "cert_random": (455, "a3e693e0ca408ef7"),
    }),
}


@pytest.mark.parametrize("instance", PASS_PINS)
def test_each_pass_asks_and_estimates_as_pinned(instance):
    """The sets each pairwise pass asks, in order, its estimates, alphas and
    gamma by .hex(), and the runs' picks, on a city and a weighted coverage."""
    build, n, pins = PASS_PINS[instance]
    oracle = build()
    digests = {}
    for strategy in (greedy_optimistic, greedy_pessimistic):
        view, asked = _logged(oracle)
        run = strategy(view, n)
        digests[run.algorithm] = (run.selected_order,
                                  _pass_digest(asked, [s.estimate for s in run.selections]))
        orders = {run.algorithm: run.selected_order}
        if run.algorithm == "pessimistic":
            orders["random"] = random.Random(5).sample(range(oracle.ground_size), n)
        for name, order in orders.items():
            view, asked = _logged(oracle)
            cert = post_hoc_bound(order, view)
            digests[f"cert_{name}"] = _pass_digest(asked, [*cert.alphas, cert.gamma])
    assert digests == pins


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
        assert (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    def test_selections_distinct_and_sized(self):
        rng = random.Random(37)
        oracle = random_soc_oracle(rng, 9)
        trace = greedy_pessimistic(oracle, 6)
        chosen = trace.selected_order
        assert len(chosen) == 6 == len(set(chosen))
        assert trace.final_set == sorted(chosen)

    def test_json_schema_round_trip(self, chain_coverage):
        trace = greedy_k_wise_optimistic(chain_coverage, 2, 3)
        doc = json.loads(json.dumps(trace.to_dict(), sort_keys=True))
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

    @pytest.mark.parametrize(("field", "value"), [
        ("n", True), ("n", "2"), ("n", 2.0), ("i", True), ("element", False),
        ("element", "0"), ("estimate", True), ("estimate", "1.0"), ("k", True), ("k", "3"),
    ])
    def test_a_wrongly_typed_field_is_a_parse_error(self, chain_coverage, field, value):
        """A bool is no int, and a string no number, in any typed field."""
        doc = json.loads(json.dumps(greedy_k_wise_optimistic(chain_coverage, 2, 3).to_dict()))
        target = doc["selections"][0] if field in ("i", "element", "estimate") else doc
        target[field] = value
        with pytest.raises(ParseError, match=f"^trace field '{field}' has the wrong type: "):
            trace_from_dict(doc)

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
