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
negative, else max(1, num/den); a NaN operand raises NonFiniteValue, as a
NaN factor does in bound_from_alphas.  Theorems 2/3 audit through audit_trace.
The traditional curvature is tau_m, the k-cardinality curvature with every
conditioning set allowed.

The corollary bounds are compositions, not separate operations: corollary 1
is bound_from_alphas(alphas_optimistic(...)), corollary 2 is
bound_from_alphas(alphas_k_wise(...)), and corollary 4 is
bound_from_alphas(alphas_pessimistic(tau_2, n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, exp, inf, isnan

from .algorithms import audit_trace
from .errors import (
    InvalidAlpha,
    InvalidArgument,
    InvalidCurvature,
    NonFiniteValue,
    TraceMismatch,
)
from .oracles import CountingOracle, EstimateCache, k_wise_upper_estimate
from .validation import check_enumeration, check_int, check_k, check_order, near_zero


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


def bound_from_alphas(alphas, n: int) -> float:
    """gamma = 1 - exp(-(1/n) sum 1/alpha_i); always within [0, 1 - 1/e]."""
    alphas = list(alphas)
    check_int(n, "n", 1)
    if len(alphas) != n:
        raise InvalidArgument(f"expected {n} factors, got {len(alphas)}")
    total = 0.0
    for a in alphas:
        if a != a:
            raise InvalidAlpha(f"approximation factor {a} is not a number")
        if a < 1.0:
            raise InvalidAlpha(f"approximation factor {a} below 1")
        total += 0.0 if a == inf else 1.0 / a
    return 1.0 - exp(-total / n)


def _factor(numerator: float, denominator: float) -> float:
    """The factor rule of every producer (module docstring); a NaN operand
    has no factor, so it raises NonFiniteValue rather than passing as 1."""
    if numerator != numerator or denominator != denominator:
        raise NonFiniteValue(f"no approximation factor of {numerator} over {denominator}: "
                             "a nan estimate or marginal cannot be ranked")
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
    check_k(k)
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
    check_int(n, "n")
    return [1.0 if i <= 2 else _factor(1.0, 1.0 - min((i - 1) * tau2, 1.0))
            for i in range(1, n + 1)]


def post_hoc_bound(solution, oracle) -> BoundReport:
    """Pairwise-information certificate for an ordered solution.

    For each prefix, the factor is _factor(best remaining upper estimate,
    the pick's lower estimate).  Only size-<=2 queries are issued: m
    singletons, then one pair per remaining candidate after each pick but
    the last, since no factor follows it.  Only the picks' lower estimates
    are read, so only theirs are kept.
    """
    solution = list(solution)
    view = CountingOracle(oracle)
    check_order(solution, view.ground_size)
    if not solution:  # before the cache asks its m singletons
        raise InvalidArgument("n must be >= 1, got 0")
    cache = EstimateCache(view, solution)
    alphas = []
    for i, x_i in enumerate(solution, 1):
        alphas.append(_factor(cache.max_upper(), cache.lower_of(x_i)))
        if i < len(solution):
            cache.condition_on(x_i, view)
    assert view.counts.other == 0, "post-hoc bound must stay pairwise"
    gamma = bound_from_alphas(alphas, len(solution))
    return BoundReport(alphas=alphas, gamma=gamma, method="algorithm1")


def traditional_curvature(full_oracle) -> float:
    """c = 1 - min over (A, x not in A, f(x) > 0) of f(x|A)/f(x).

    tau_m: every conditioning set is allowed, so the scan asks all 2^m - 1
    nonempty sets and is gated by the enumeration limit.  The A = empty
    term is left out, which changes nothing when f(empty) = 0.
    """
    return k_cardinality_curvature(full_oracle, max(2, full_oracle.ground_size))


def k_marginal_curvature(full_oracle, x: int, ids, k: int) -> float:
    """c_k(x|S) = 1 - f(x|S)/upper_k(x|S), zero when upper_k vanishes, in
    [0, 1]; NonFiniteValue, naming x and S, when f(x|S) or the ratio is NaN."""
    true_marginal = full_oracle.marginal(x, ids)
    upper = k_wise_upper_estimate(full_oracle, x, ids, k)
    c = 0.0 if near_zero(upper) else 1.0 - true_marginal / upper
    if c != c or true_marginal != true_marginal:
        raise NonFiniteValue(f"c_{k}({x}|{sorted(ids)}) is undefined: f(x|S) is "
                             f"{true_marginal} and its upper estimate {upper}")
    return min(1.0, max(0.0, c))


def k_cardinality_curvature(oracle, k: int) -> float:
    """tau_k = 1 - min over (x, |A| < k, f(x) > 0) of f(x|A)/f(x).

    Needs only budget-k queries and asks every set of size at most k once,
    in lexicographic order within each size, the m singletons first as one
    column.  Pairs are asked one column per x, _column((x,), ids above x),
    and each {x, y} yields f(x|y) and f(y|x); whether f(x) is near zero is
    decided once per member.  Each larger T, 3 <= |T| <= k, is asked in one
    _column per T minus its largest id and yields f(x|T minus x) for all of
    its members x, with f(T minus x) taken from the memo of the smaller
    sets.  The k=2 case is the production path and costs m singletons plus
    one query per unordered pair.  A NaN answer raises NonFiniteValue
    (_answered).
    """
    check_k(k)
    m = oracle.ground_size
    pair_count = m * (2 ** (m - 1) - 1 if k >= m  # every nonempty A, without summing
                      else sum(comb(m - 1, size) for size in range(1, k)))
    check_enumeration(pair_count, f"tau_{k} scan", "conditioning sets")
    ids = list(range(m))
    single = _answered(oracle._column((), ids), (), ids)
    live = [not near_zero(fx) for fx in single]
    memo: dict[tuple, float] = {(x,): fx for x, fx in enumerate(single)}
    min_ratio = 1.0
    for x in ids:
        ys = ids[x + 1:]
        fx, live_x = single[x], live[x]
        for y, f_t in zip(ys, _answered(oracle._column((x,), ys), (x,), ys)):
            if k > 2:
                memo[(x, y)] = f_t
            if live_x:
                ratio = (f_t - single[y]) / fx
                if ratio < min_ratio:
                    min_ratio = ratio
            if live[y]:
                ratio = (f_t - fx) / single[y]
                if ratio < min_ratio:
                    min_ratio = ratio
    for size in range(3, k + 1):
        for head in combinations(ids, size - 1):
            ys = ids[head[-1] + 1:]
            for y, f_t in zip(ys, _answered(oracle._column(head, ys), head, ys)):
                t = head + (y,)
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


def _answered(column: list, head: tuple, ys: list) -> list:
    """column, the values f(head + {y}) for y in ys, unless one is NaN: a
    ratio of NaN compares below nothing, so it would drop out of the scan
    unseen.  As argmax does, the column is scanned for the NaN only when
    its sum is NaN."""
    if isnan(sum(column)):  # a NaN, or +inf and -inf together
        for y, value in zip(ys, column):
            if value != value:
                raise NonFiniteValue(f"f({[*head, y]}) is {value}, so tau_k is undefined")
    return column
