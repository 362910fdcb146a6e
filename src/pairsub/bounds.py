"""Approximation factors, curvatures, and performance certificates.

A run's quality is certified through per-iteration approximation factors
alpha_i >= 1 (alpha_i = inf is the vacuous factor) composed into

    gamma = 1 - exp(-(1/n) * sum_i 1/alpha_i),        1/inf := 0,

so that f(solution) >= gamma * f(optimum).  Three producers supply factors:

* alphas_optimistic  -- ratio of the recorded upper estimate to the audited
  true marginal (factors 1 for the first two iterations),
* alphas_k_wise      -- same with the k-wise estimate and threshold k,
* alphas_pessimistic -- 1/(1 - min{(i-1)*tau_2, 1}) from the 2-cardinality
  curvature alone.

post_hoc_bound is the pairwise-information certificate: it bounds each
iteration's factor by (max upper estimate) / (lower estimate of the pick)
using only size-<=2 queries, no full oracle required.

The corollary bounds are compositions, not separate operations: corollary 1
is bound_from_alphas(alphas_optimistic(...)), corollary 2 is
bound_from_alphas(alphas_k_wise(...)), and corollary 4 is
bound_from_alphas(alphas_pessimistic(tau_2, n)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb, exp, inf

from .errors import (
    CardinalityTooLarge,
    DuplicateElement,
    InstanceTooLarge,
    InvalidAlpha,
    InvalidArgument,
    InvalidCurvature,
    TraceMismatch,
)
from .oracles import CountingOracle, EstimateCache, k_wise_upper_estimate
from .validation import check_element_ids, near_zero
from .verify import subset_values

CURVATURE_ENUM_LIMIT = 10**6


@dataclass
class BoundReport:
    """Factors, the resulting guarantee, and the method that produced them."""

    alphas: list[float]
    gamma: float
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "alphas": ["inf" if a == inf else a for a in self.alphas],
            "gamma": self.gamma,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


@dataclass
class CurvatureReport:
    traditional: float
    tau_k: float
    marginal: dict


def bound_from_alphas(alphas, n: int) -> float:
    """gamma = 1 - exp(-(1/n) sum 1/alpha_i); always within [0, 1 - 1/e]."""
    alphas = list(alphas)
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if len(alphas) != n:
        raise InvalidArgument(f"expected {n} factors, got {len(alphas)}")
    total = 0.0
    for a in alphas:
        if a != inf and a < 1.0:
            raise InvalidAlpha(f"approximation factor {a} below 1")
        total += 0.0 if a == inf else 1.0 / a
    return 1.0 - exp(-total / n)


def _ratio_alpha(estimate: float, true_marginal: float) -> float:
    if near_zero(true_marginal):
        return 1.0 if near_zero(estimate) else inf
    return max(1.0, estimate / true_marginal)


def _alphas_from_trace(trace, full_oracle, threshold: int) -> list[float]:
    alphas = []
    prior: list[int] = []
    for sel in trace.selections:
        if sel.iteration <= threshold:
            alphas.append(1.0)
        else:
            true_marginal = full_oracle.marginal(sel.element, prior)
            alphas.append(_ratio_alpha(sel.estimate, true_marginal))
        prior.append(sel.element)
    return alphas


def alphas_optimistic(trace, full_oracle) -> list[float]:
    """Per-iteration factors for an optimistic run (audited true marginals).

    The first two picks coincide with full-information greedy, so their
    factors are 1; beyond that the factor is estimate/true, infinite when a
    positive estimate sits over a zero marginal.
    """
    if trace.algorithm != "optimistic":
        raise TraceMismatch(
            f"expected an optimistic trace, got {trace.algorithm!r}"
        )
    return _alphas_from_trace(trace, full_oracle, threshold=2)


def alphas_k_wise(trace, full_oracle, k: int) -> list[float]:
    """Factors for a k-wise optimistic run: 1 through iteration k, then the
    estimate/true ratio."""
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    if trace.algorithm == "k_wise_optimistic":
        if trace.k is not None and trace.k != k:
            raise TraceMismatch(f"trace was produced with k={trace.k}, not k={k}")
    elif not (trace.algorithm == "optimistic" and k == 2):
        raise TraceMismatch(
            f"expected a k_wise_optimistic trace, got {trace.algorithm!r}"
        )
    return _alphas_from_trace(trace, full_oracle, threshold=k)


def alphas_pessimistic(tau2: float, n: int) -> list[float]:
    """Curvature-only factors for a pessimistic run.

    alpha_i = 1/(1 - min{(i-1)*tau_2, 1}) for i > 2, infinite once the min
    saturates; requires supermodularity of conditioning to certify anything.
    """
    if not 0.0 <= tau2 <= 1.0:
        raise InvalidCurvature(f"tau_2 must lie in [0, 1], got {tau2}")
    alphas = []
    for i in range(1, n + 1):
        if i <= 2:
            alphas.append(1.0)
            continue
        denom = 1.0 - min((i - 1) * tau2, 1.0)
        alphas.append(inf if denom <= 0.0 else max(1.0, 1.0 / denom))
    return alphas


def post_hoc_bound(solution, oracle, m: int | None = None) -> BoundReport:
    """Pairwise-information certificate for an ordered solution.

    For each prefix, the factor is the best remaining upper estimate over
    the picked element's lower estimate (1 when both vanish, infinite when
    the lower estimate is non-positive under a positive numerator).  Only
    size-<=2 queries are issued: m singletons, then one pair per remaining
    candidate after each pick but the last, since no factor follows it.
    """
    solution = list(solution)
    view = CountingOracle(oracle)
    ground = view.ground_size
    if m is not None and m != ground:
        raise InvalidArgument(f"declared m={m} but the oracle has ground size {ground}")
    check_element_ids(solution, ground)
    if len(set(solution)) != len(solution):
        raise DuplicateElement(f"solution repeats an element: {solution}")
    if len(solution) > ground:
        raise CardinalityTooLarge(
            f"solution size {len(solution)} exceeds ground set size {ground}"
        )
    cache = EstimateCache(view)
    alphas = []
    for i, x_i in enumerate(solution, 1):
        numerator = cache.max_upper()
        denom = cache.lower[x_i]
        if near_zero(denom):
            alphas.append(1.0 if near_zero(numerator) else inf)
        elif denom < 0.0:
            alphas.append(inf)
        else:
            alphas.append(max(1.0, numerator / denom))
        if i < len(solution):
            cache.condition_on(x_i, view)
    assert view.counts.other == 0, "post-hoc bound must stay pairwise"
    gamma = bound_from_alphas(alphas, len(solution))
    return BoundReport(alphas=alphas, gamma=gamma, method="algorithm1")


def traditional_curvature(full_oracle, limit: int = CURVATURE_ENUM_LIMIT) -> float:
    """c = 1 - min over (A, x not in A, f(x) > 0) of f(x|A)/f(x).

    Exhaustive over all conditioning sets, so gated by the enumeration limit.
    """
    m = full_oracle.ground_size
    if m * 2 ** (m - 1) > limit:
        raise InstanceTooLarge(
            f"curvature scan needs {m * 2 ** (m - 1)} pairs, limit is {limit}"
        )
    values = subset_values(full_oracle)
    min_ratio = 1.0
    for x in range(m):
        xbit = 1 << x
        fx = values[xbit]
        if near_zero(fx):
            continue  # ratio defined as 1; cannot lower the min
        for mask in range(1 << m):
            if mask & xbit:
                continue
            ratio = (values[mask | xbit] - values[mask]) / fx
            if ratio < min_ratio:
                min_ratio = ratio
    # float noise in the marginals can push the ratio a hair outside [0, 1]
    return min(1.0, max(0.0, 1.0 - min_ratio))


def k_marginal_curvature(full_oracle, x: int, ids, k: int) -> float:
    """c_k(x|S) = 1 - f(x|S)/upper_k(x|S); zero when both vanish."""
    true_marginal = full_oracle.marginal(x, ids)
    upper = k_wise_upper_estimate(full_oracle, x, ids, k)
    if near_zero(upper):
        return 0.0
    return min(1.0, max(0.0, 1.0 - true_marginal / upper))


def k_cardinality_curvature(oracle, k: int, limit: int = CURVATURE_ENUM_LIMIT) -> float:
    """tau_k = 1 - min over (x, |A| < k, f(x) > 0) of f(x|A)/f(x).

    Needs only budget-k queries and asks every set of size at most k once:
    each T with 2 <= |T| <= k yields f(x|T minus x) for all of its members x,
    with f(T minus x) taken from the memo of the smaller sets.  The k=2 case
    is the production path and costs m singletons plus one query per
    unordered pair.
    """
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    m = oracle.ground_size
    pair_count = sum(comb(m - 1, size) for size in range(1, k)) * m
    if pair_count > limit:
        raise InstanceTooLarge(
            f"tau_{k} scan needs {pair_count} conditioning sets, limit is {limit}"
        )
    memo: dict[tuple, float] = {(x,): oracle.evaluate((x,)) for x in range(m)}
    min_ratio = 1.0
    for size in range(2, k + 1):
        for t in combinations(range(m), size):
            f_t = oracle.evaluate(t)
            if size < k:
                memo[t] = f_t
            for j, x in enumerate(t):
                fx = memo[(x,)]
                if near_zero(fx):
                    continue
                ratio = (f_t - memo[t[:j] + t[j + 1:]]) / fx
                if ratio < min_ratio:
                    min_ratio = ratio
    return min(1.0, max(0.0, 1.0 - min_ratio))


def curvature_report(full_oracle, k: int, marginal_queries=()) -> CurvatureReport:
    """Bundle the traditional curvature, tau_k, and any requested c_k(x|S)."""
    marginal = {
        (x, tuple(sorted(ids))): k_marginal_curvature(full_oracle, x, ids, k)
        for x, ids in marginal_queries
    }
    return CurvatureReport(
        traditional=traditional_curvature(full_oracle),
        tau_k=k_cardinality_curvature(full_oracle, k),
        marginal=marginal,
    )

