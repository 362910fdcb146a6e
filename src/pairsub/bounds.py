"""Approximation factors, curvatures, and performance certificates.

A run's quality is certified through per-iteration approximation factors
alpha_i >= 1 (alpha_i = inf is the vacuous factor) composed into

    gamma = 1 - exp(-(1/n) * sum_i 1/alpha_i),        1/inf := 0,

so that f(solution) >= gamma * f(optimum).  Three producers supply factors:

* alphas_k_wise      -- Theorem 3: ratio of the recorded k-wise upper
  estimate to the audited true marginal, factors 1 for the first k picks,
* alphas_optimistic  -- Theorem 2, which is Theorem 3 at k = 2,
* alphas_pessimistic -- Theorem 5: 1/(1 - min{(i-1)*tau_2, 1}) from the
  2-cardinality curvature alone.

post_hoc_bound is the pairwise-information certificate (Algorithm 1): it
bounds each iteration's factor by (max upper estimate) / (lower estimate of
the pick) using only size-<=2 queries, no full oracle required.

Every producer shares one factor rule, _factor(num, den): 1 when both
vanish, infinite when den vanishes under a non-vanishing num or is
negative, else max(1, num/den).  Theorems 2/3 audit through audit_trace.
The traditional curvature is tau_m, the k-cardinality curvature with every
conditioning set allowed.

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

from .algorithms import audit_trace
from .errors import (
    InstanceTooLarge,
    InvalidAlpha,
    InvalidArgument,
    InvalidCurvature,
    TraceMismatch,
)
from .oracles import CountingOracle, EstimateCache, k_wise_upper_estimate
from .validation import check_order, count_text, near_zero

CURVATURE_ENUM_LIMIT = 10**6


@dataclass(slots=True)
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


def _factor(numerator: float, denominator: float) -> float:
    """The factor rule of every producer (module docstring)."""
    if near_zero(denominator):
        return 1.0 if near_zero(numerator) else inf
    if denominator < 0.0:
        return inf
    return max(1.0, numerator / denominator)


def alphas_optimistic(trace, full_oracle) -> list[float]:
    """Theorem 2: the factors of an optimistic run, which are Theorem 3's at k=2.

    The first two picks coincide with full-information greedy, so their
    factors are 1; beyond that the factor is _factor(estimate, true).
    """
    if trace.algorithm != "optimistic":
        raise TraceMismatch(
            f"expected an optimistic trace, got {trace.algorithm!r}"
        )
    return alphas_k_wise(trace, full_oracle, 2)


def alphas_k_wise(trace, full_oracle, k: int) -> list[float]:
    """Theorem 3: factors for a k-wise optimistic run, 1 for the first k
    picks, then _factor(estimate, audited true marginal).  The threshold
    reads each pick's position, not its recorded iteration label."""
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    if trace.algorithm == "k_wise_optimistic":
        if trace.k is not None and trace.k != k:
            raise TraceMismatch(f"trace was produced with k={trace.k}, not k={k}")
    elif not (trace.algorithm == "optimistic" and k == 2):
        raise TraceMismatch(
            f"expected a k_wise_optimistic trace, got {trace.algorithm!r}"
        )
    true_marginals = audit_trace(trace, full_oracle).true_marginals
    return [1.0 if i <= k else _factor(sel.estimate, true)
            for i, (sel, true) in enumerate(zip(trace.selections, true_marginals), 1)]


def alphas_pessimistic(tau2: float, n: int) -> list[float]:
    """Curvature-only factors for a pessimistic run.

    alpha_i = _factor(1, 1 - min{(i-1)*tau_2, 1}) for i > 2; requires
    supermodularity of conditioning to certify anything.
    """
    if not 0.0 <= tau2 <= 1.0:
        raise InvalidCurvature(f"tau_2 must lie in [0, 1], got {tau2}")
    return [1.0 if i <= 2 else _factor(1.0, 1.0 - min((i - 1) * tau2, 1.0))
            for i in range(1, n + 1)]


def post_hoc_bound(solution, oracle, m: int | None = None) -> BoundReport:
    """Pairwise-information certificate for an ordered solution.

    For each prefix, the factor is _factor(best remaining upper estimate,
    the pick's lower estimate).  Only size-<=2 queries are issued: m
    singletons, then one pair per remaining candidate after each pick but
    the last, since no factor follows it.
    """
    solution = list(solution)
    view = CountingOracle(oracle)
    ground = view.ground_size
    if m is not None and m != ground:
        raise InvalidArgument(f"declared m={m} but the oracle has ground size {ground}")
    check_order(solution, ground)
    cache = EstimateCache(view)
    alphas = []
    for i, x_i in enumerate(solution, 1):
        alphas.append(_factor(cache.argmax_upper()[1], cache.lower[x_i]))
        if i < len(solution):
            cache.condition_on(x_i, view)
    assert view.counts.other == 0, "post-hoc bound must stay pairwise"
    gamma = bound_from_alphas(alphas, len(solution))
    return BoundReport(alphas=alphas, gamma=gamma, method="algorithm1")


def traditional_curvature(full_oracle, limit: int = CURVATURE_ENUM_LIMIT) -> float:
    """c = 1 - min over (A, x not in A, f(x) > 0) of f(x|A)/f(x).

    tau_m: every conditioning set is allowed, so the scan asks all 2^m - 1
    nonempty sets and is gated by the enumeration limit.  The A = empty
    term is left out, which changes nothing when f(empty) = 0.
    """
    return k_cardinality_curvature(full_oracle, max(2, full_oracle.ground_size), limit)


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
    pair_count = m * (2 ** (m - 1) - 1 if k >= m  # every nonempty A, without summing
                      else sum(comb(m - 1, size) for size in range(1, k)))
    if pair_count > limit:
        raise InstanceTooLarge(
            f"tau_{k} scan needs {count_text(pair_count)} conditioning sets, "
            f"limit is {count_text(limit)}"
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
