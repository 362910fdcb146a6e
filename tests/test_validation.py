"""The package-wide comparison tolerance at the edges of the float range, and
the checks of a cardinality n and an order k that every entry point shares."""

import math

import pytest

from pairsub import (
    CardinalityTooLarge,
    InvalidArgument,
    SetFunctionOracle,
    alphas_k_wise,
    brute_force_optimal,
    greedy_full,
    greedy_k_wise_optimistic,
    greedy_optimistic,
    greedy_pessimistic,
    greedy_uninformed,
    k_cardinality_curvature,
    k_wise_upper_estimate,
    run_algorithm,
)
from pairsub.validation import ABS_TOL, REL_TOL, at_least, tolerance, values_close

INF, NAN = math.inf, math.nan
EDGES = (0.0, 1e-13, -2.5, 1e12, INF, -INF, NAN)


def variadic_tolerance(*values):
    """The rule tolerance(a, b) replaced: the same slack over any number of values."""
    return max(ABS_TOL, REL_TOL * max((abs(v) for v in values), default=0.0))


def test_two_value_tolerance_keeps_the_variadic_rule():
    for a in EDGES:
        for b in EDGES:
            assert tolerance(a, b) == variadic_tolerance(a, b), (a, b)


@pytest.mark.parametrize(("a", "b", "holds"), [
    (INF, INF, True),
    (INF, 1.0, True),
    (-INF, 1.0, False),
    (1.0, INF, False),
    (NAN, 1.0, False),
    (1.0, NAN, False),
    (NAN, NAN, False),
    (1.0 - 1e-10, 1.0, True),
    (1.0 - 1e-8, 1.0, False),
])
def test_at_least_at_the_edges(a, b, holds):
    assert at_least(a, b) is holds


@pytest.mark.parametrize(("a", "b", "holds"), [
    (INF, INF, True),
    (-INF, -INF, True),
    (INF, 1.0, False),
    (NAN, NAN, False),
    (1.0, NAN, False),
    (NAN, 1.0, False),
    (1.0, 1.0 + 1e-10, True),
    (0.0, 1e-13, True),
    (0.0, 1e-11, False),
])
def test_values_close_at_the_edges(a, b, holds):
    assert values_close(a, b) is holds


def _asked(calls):
    """f = |S| on three elements, each query appended to calls."""
    return SetFunctionOracle(3, lambda s: calls.append(s) or float(len(s)))


# (n, error, message): a bool or a float is no cardinality, although True
# and 2.0 compare equal to 1 and 2
BAD_CARDINALITIES = [
    (0, InvalidArgument, "cardinality must be >= 1, got 0"),
    (4, CardinalityTooLarge, "cardinality 4 exceeds ground set size 3"),
    (2.0, InvalidArgument, "cardinality must be an integer, got 2.0"),
    (True, InvalidArgument, "cardinality must be an integer, got True"),
    ("2", InvalidArgument, "cardinality must be an integer, got '2'"),
]
TAKES_N = {
    "full": greedy_full,
    "uninformed": greedy_uninformed,
    "optimistic": greedy_optimistic,
    "pessimistic": greedy_pessimistic,
    "k_wise_optimistic": lambda oracle, n: greedy_k_wise_optimistic(oracle, n, 3),
    "run_algorithm": lambda oracle, n: run_algorithm("optimistic", oracle, n),
    "brute_force": brute_force_optimal,
}


@pytest.mark.parametrize("entry", TAKES_N.values(), ids=TAKES_N.keys())
@pytest.mark.parametrize(("n", "error", "message"), BAD_CARDINALITIES,
                         ids=[repr(n) for n, _, _ in BAD_CARDINALITIES])
def test_a_bad_cardinality_is_refused_before_any_query(entry, n, error, message):
    calls = []
    with pytest.raises(error) as raised:
        entry(_asked(calls), n)
    assert (type(raised.value), str(raised.value), calls) == (error, message, [])


BAD_ORDERS = [
    (1, "k must be >= 2, got 1"),
    (-3, "k must be >= 2, got -3"),
    (2.0, "k must be an integer, got 2.0"),
    (True, "k must be an integer, got True"),
    ("3", "k must be an integer, got '3'"),
]
TAKES_K = {
    "run_algorithm": lambda oracle, k: run_algorithm("k_wise_optimistic", oracle, 2, k=k),
    "k_wise_greedy": lambda oracle, k: greedy_k_wise_optimistic(oracle, 2, k),
    "k_wise_upper_estimate": lambda oracle, k: k_wise_upper_estimate(oracle, 0, [1], k),
    "alphas_k_wise": lambda oracle, k: alphas_k_wise(TRACE, oracle, k),
    "tau_k": k_cardinality_curvature,
}
TRACE = greedy_k_wise_optimistic(_asked([]), 2, 2)


@pytest.mark.parametrize("entry", TAKES_K.values(), ids=TAKES_K.keys())
@pytest.mark.parametrize(("k", "message"), BAD_ORDERS, ids=[repr(k) for k, _ in BAD_ORDERS])
def test_a_bad_order_is_refused_before_any_query(entry, k, message):
    calls = []
    with pytest.raises(InvalidArgument) as raised:
        entry(_asked(calls), k)
    assert (type(raised.value), str(raised.value), calls) == (InvalidArgument, message, [])
