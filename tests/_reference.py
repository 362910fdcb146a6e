"""From-scratch references for the pairwise and k-wise greedy strategies,
Algorithm 1, the tau_k scan, the traditional curvature and the exhaustive
property checks.

These recompute every estimate from raw oracle queries at every iteration,
with the same fold order as the incremental recursions, so a correct cached
implementation must reproduce their selections and certificates bit for
bit.  Intentionally independent of EstimateCache.
"""

from __future__ import annotations

from itertools import combinations, product
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


def naive_greedy_k_wise(oracle, n, k):
    """The Theorem 3 strategy: every pick maximizes min f(x|A) over all A
    within the selection with |A| < k, each f(A + x) and f(A) asked afresh."""
    def upper(oracle, x, selected):
        est = oracle.evaluate((x,))
        for size in range(1, k):
            for a in combinations(selected, size):
                pm = oracle.evaluate(a + (x,)) - oracle.evaluate(a)
                if pm < est:
                    est = pm
        return est
    return _naive_greedy(oracle, n, upper)


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


def _members(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _monotone(f, a, x):
    b = a | 1 << x
    if f(b) < f(a):
        return {"A": _members(a), "B": _members(b), "f_A": f(a), "f_B": f(b)}


def _submodular(f, b, x, a):
    given_a = f(a | 1 << x) - f(a)
    given_b = f(b | 1 << x) - f(b)
    if given_a < given_b:
        return {"A": _members(a), "B": _members(b), "x": x,
                "marginal_given_A": given_a, "marginal_given_B": given_b}


def _soc(f, b, a, c, s):
    lhs = (f(s | a) - f(a)) - (f(s | a | c) - f(a | c))
    rhs = (f(s | b) - f(b)) - (f(s | b | c) - f(b | c))
    if lhs < rhs:
        return {"S": _members(s), "A": _members(a), "B": _members(b),
                "C": _members(c), "lhs": lhs, "rhs": rhs}


def _redundancy(f, a, b, c):
    lhs = (f(a | b) - f(b)) - (f(a | b | c) - f(b | c))
    rhs = 0.0
    for e in _members(c):
        rhs += f(1 << e) - (f(a | 1 << e) - f(a))
    if rhs < lhs:
        return {"A": _members(a), "B": _members(b), "C": _members(c),
                "lhs": lhs, "rhs": rhs}


def _marginal_lower(f, x, s):
    marginal = f(s | 1 << x) - f(s)
    low = f(1 << x)
    for y in _members(s):
        low -= f(1 << x) - (f(1 << x | 1 << y) - f(1 << y))
    if marginal < low:
        return {"x": x, "S": _members(s), "marginal": marginal, "lower_estimate": low}


def _nemhauser(f, s, t):
    bound = f(s)
    for x in _members(t & ~s):
        bound += f(s | 1 << x) - f(s)
    if bound < f(t):
        return {"S": _members(s), "T": _members(t), "f_T": f(t), "bound": bound}


# name -> (slot kinds, S a subset mask and x an element; the paper's
# constraints on a tuple; the violation's witness or None)
PROPERTIES = {
    "monotone": ("Sx", lambda a, x: not a >> x & 1, _monotone),
    "submodular": ("SxS", lambda b, x, a: not b >> x & 1 and not a & ~b, _submodular),
    "supermodularity_of_conditioning": (
        "SSSS", lambda b, a, c, s: not a & ~b and not c & b, _soc),
    "pairwise_redundancy_bound": ("SSS", lambda a, b, c: not a & b and not c & (a | b),
                                  _redundancy),
    "marginal_lower_bound": ("xS", lambda x, s: not s >> x & 1, _marginal_lower),
    "nemhauser_inequality": ("SS", lambda s, t: True, _nemhauser),
}


def naive_property_check(name, oracle, require_disjoint=False):
    """(holds, witness, instances_checked) of an exhaustive check, by a scan of
    every tuple of masks and elements in nested order, kept by the property's
    constraints, with f asked afresh for every set.

    Comparisons are exact, so f should take integer values.
    """
    m = oracle.ground_size
    kinds, keep, violation = PROPERTIES[name]
    f = lambda mask: oracle.evaluate(_members(mask))  # noqa: E731
    axes = [range(1 << m) if kind == "S" else range(m) for kind in kinds]
    checked = 0
    for t in product(*axes):
        if not keep(*t) or (require_disjoint and t[3] & (t[0] | t[2])):
            continue
        checked += 1
        witness = violation(f, *t)
        if witness is not None:
            return False, witness, checked
    return True, None, checked
