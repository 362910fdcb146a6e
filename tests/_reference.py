"""From-scratch references for the pairwise greedy strategies, Algorithm 1,
the tau_k scan and the traditional curvature.

These recompute every estimate from raw oracle queries at every iteration,
with the same fold order as the incremental recursions, so a correct cached
implementation must reproduce their selections and certificates bit for
bit.  Intentionally independent of EstimateCache.
"""

from __future__ import annotations

from itertools import combinations
from math import exp, inf

from pairsub.validation import near_zero


def _scratch_upper(oracle, x, selected):
    est = oracle.evaluate((x,))
    for y in selected:  # fold in selection order, seeded with f(x)
        pm = oracle.evaluate((x, y)) - oracle.evaluate((y,))
        if pm < est:
            est = pm
    return est


def _scratch_lower(oracle, x, selected):
    fx = oracle.evaluate((x,))
    est = fx
    for y in selected:
        pm = oracle.evaluate((x, y)) - oracle.evaluate((y,))
        est = est - (fx - pm)
    return est


def _naive_greedy(oracle, n, estimate):
    m = oracle.ground_size
    selected: list[int] = []
    estimates: list[float] = []
    for _ in range(n):
        best_x, best_v = None, -inf
        for x in range(m):
            if x in selected:
                continue
            v = estimate(oracle, x, selected)
            if v > best_v:
                best_v, best_x = v, x
        selected.append(best_x)
        estimates.append(best_v)
    return selected, estimates


def naive_greedy_optimistic(oracle, n):
    return _naive_greedy(oracle, n, _scratch_upper)


def naive_greedy_pessimistic(oracle, n):
    return _naive_greedy(oracle, n, _scratch_lower)


def naive_post_hoc_bound(oracle, solution):
    """Algorithm 1's factors and gamma, every estimate recomputed eagerly."""
    m = oracle.ground_size
    selected: list[int] = []
    alphas = []
    for x_i in solution:
        numerator = max(_scratch_upper(oracle, x, selected)
                        for x in range(m) if x not in selected)
        denom = _scratch_lower(oracle, x_i, selected)
        if near_zero(denom):
            alphas.append(1.0 if near_zero(numerator) else inf)
        elif denom < 0.0:
            alphas.append(inf)
        else:
            alphas.append(max(1.0, numerator / denom))
        selected.append(x_i)
    total = 0.0
    for a in alphas:
        total += 0.0 if a == inf else 1.0 / a
    return alphas, 1.0 - exp(-total / len(solution))


def naive_k_cardinality_curvature(oracle, k):
    """tau_k by the ordered scan: every x with f(x) not near zero against
    every A with 1 <= |A| < k, both f(A + x) and f(A) asked afresh."""
    m = oracle.ground_size
    min_ratio = 1.0
    for x in range(m):
        fx = oracle.evaluate((x,))
        if near_zero(fx):
            continue
        others = [y for y in range(m) if y != x]
        for size in range(1, k):
            for a in combinations(others, size):
                ratio = (oracle.evaluate(a + (x,)) - oracle.evaluate(a)) / fx
                if ratio < min_ratio:
                    min_ratio = ratio
    return min(1.0, max(0.0, 1.0 - min_ratio))


def naive_traditional_curvature(oracle):
    """c by the ordered scan: every x with f(x) not near zero against every
    A without x, both f(A + x) and f(A) asked afresh."""
    m = oracle.ground_size
    min_ratio = 1.0
    for x in range(m):
        fx = oracle.evaluate((x,))
        if near_zero(fx):
            continue
        others = [y for y in range(m) if y != x]
        for size in range(m):
            for a in combinations(others, size):
                ratio = (oracle.evaluate(a + (x,)) - oracle.evaluate(a)) / fx
                if ratio < min_ratio:
                    min_ratio = ratio
    return min(1.0, max(0.0, 1.0 - min_ratio))
