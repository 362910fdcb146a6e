"""From-scratch references for the full, pairwise and k-wise greedy strategies,
Algorithm 1, the tau_k scan, the traditional curvature, the property
checks, exhaustive (quantified and local) and sampled, the
probabilistic-coverage value of a set by the plain per-member loop, and the
estimate rules as dict loops over tables keyed by candidate id.

These recompute every estimate from raw oracle queries at every iteration,
with the same fold order as the incremental recursions, so a correct cached
implementation must reproduce their selections and certificates bit for
bit.  Intentionally independent of EstimateCache.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import exp, inf, isnan
from typing import Mapping

from pairsub.errors import InvalidArgument, NonFiniteValue
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


def dict_fold_upper(upper: dict, column, f_a: float) -> None:
    """The min rule: lower upper[x] to f(x|A) = f(A + x) - f(A) when that is
    smaller, for each key x of upper, column holding f(A + x) in key order."""
    for x, f_ax in zip(upper, column):
        marg = f_ax - f_a
        if marg < upper[x]:
            upper[x] = marg


def dict_fold_lower(lower: dict, base: dict, f_y: float, column) -> None:
    """The redundancy rule: take f(x) - f(x|y) from lower[x] for each key x of
    lower, column holding f({x, y}) in key order; f_y is f({y}) and base
    holds f({x}) for every id."""
    for x, f_xy in zip(lower, column):
        lower[x] -= base[x] - (f_xy - f_y)


def dict_argmax(table: dict) -> tuple[int, float]:
    """The key of table with the highest value, and that value.

    Ties go to the key that comes first, the lowest id when keys ascend.
    NonFiniteValue names the first NaN value, found by a scan only when the
    sum of the values is NaN, or the first key if no value is above -inf.
    """
    if not table:
        raise InvalidArgument("no candidates remain")
    if isnan(sum(table.values())):  # a NaN, or +inf and -inf together
        for x, v in table.items():
            if v != v:
                raise NonFiniteValue(f"candidate {x} has {v}, which cannot be ranked")
    best_x, best_v = None, -inf
    for x, v in table.items():
        if v > best_v:
            best_v, best_x = v, x
    if best_x is None:  # every value is -inf
        raise NonFiniteValue("no candidate has a value above -inf; "
                             f"candidate {next(iter(table))} has -inf")
    return best_x, best_v


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


def naive_greedy_full(oracle, n):
    """The textbook greedy: every candidate scored by oracle.marginal, which
    asks f(S + x) and f(S) afresh."""
    return _naive_greedy(oracle, n, lambda oracle, x, selected: oracle.marginal(x, selected))


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


def naive_probabilistic_value(oracle, ids):
    """f(S) of a probabilistic-coverage oracle by the plain loop, read from
    its spec: one list of miss products per member in id order, then the
    sum of (1 - q_e) * v_e over the districts in order."""
    spec = oracle.spec
    demands = list(_items(spec.demands))
    index = {key: e for e, (key, _) in enumerate(demands)}
    v = [float(d) for _, d in demands]
    stations = [probs for _, probs in _items(spec.probabilities)]
    miss = None
    for x in sorted(ids):
        row = [1.0] * len(v)
        for key, p in _items(stations[x]):
            row[index[key]] = 1.0 - float(p)
        miss = row if miss is None else [a * b for a, b in zip(miss, row)]
    return sum((1.0 - q) * ve for q, ve in zip(miss, v))


def _items(obj):
    return obj.items() if isinstance(obj, Mapping) else enumerate(obj)


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
    members = [_members(mask) for mask in range(1 << m)]
    f = lambda mask: oracle.evaluate(members[mask])  # noqa: E731
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


def naive_local_check(name, oracle, require_disjoint=False):
    """(holds, witness, instances_checked) of an exhaustive check of
    submodularity, supermodularity of conditioning, Nemhauser's inequality
    or the pairwise redundancy bound by its local form, by a scan of every D
    in mask order and every x outside it, every x < y, or every x < y < z,
    with f asked afresh for every set.

    Submodularity scans the pairs: f(x|D) >= f(x|D+y).  SoC scans the pairs
    as S = C = {x} and then the triples as S = {x}, C = {z}, each with A = D
    and B = D + y; require_disjoint scans the triples alone.  Nemhauser's
    inequality scans every x as S = D + x, T = D (monotonicity) and then the
    pairs as S = D, T = D + x + y (submodularity).  The redundancy bound
    scans C = {c} instead: every A in mask order, every B outside A in mask
    order and every c outside both.  Witnesses are those of the quantified
    definition.  Comparisons are exact, so f should take integer values.
    """
    m = oracle.ground_size
    f = lambda mask: oracle.evaluate(_members(mask))  # noqa: E731
    if name == "pairwise_redundancy_bound":
        checked = 0
        for a in range(1 << m):
            for b in range(1 << m):
                for c in range(m):
                    if a & b or (a | b) >> c & 1:
                        continue
                    checked += 1
                    witness = _redundancy(f, a, b, 1 << c)
                    if witness is not None:
                        return False, witness, checked
        return True, None, checked
    if name == "submodular":
        scans = [(2, lambda d, x, y: _submodular(f, d | 1 << y, x, d))]
    elif name == "nemhauser_inequality":
        scans = [(1, lambda d, x: _nemhauser(f, d | 1 << x, d)),
                 (2, lambda d, x, y: _nemhauser(f, d, d | 1 << x | 1 << y))]
    else:
        triple = lambda d, x, y, z: _soc(f, d | 1 << y, d, 1 << z, 1 << x)  # noqa: E731
        scans = [(3, triple)]
        if not require_disjoint:
            scans.insert(0, (2, lambda d, x, y: _soc(f, d | 1 << y, d, 1 << x, 1 << x)))
    checked = 0
    for size, violation in scans:
        for d in range(1 << m):
            outside = [e for e in range(m) if not d >> e & 1]
            for elements in combinations(outside, size):
                checked += 1
                witness = violation(d, *elements)
                if witness is not None:
                    return False, witness, checked
    return True, None, checked


# name -> the mask of each slot of a sampled draw, from the earlier slots: a
# subset slot ranges over the subsets of its mask, an element slot over the
# elements outside it.  The masks state the constraints of PROPERTIES.
SAMPLED_MASKS = {
    "monotone": (lambda full: full, lambda full, a: a),
    "submodular": (lambda full: full, lambda full, b: b, lambda full, b, x: b),
    "supermodularity_of_conditioning": (
        lambda full: full, lambda full, b: b, lambda full, b, a: full & ~b,
        lambda full, b, a, c: full),
    "pairwise_redundancy_bound": (lambda full: full, lambda full, a: full & ~a,
                                  lambda full, a, b: full & ~(a | b)),
    "marginal_lower_bound": (lambda full: 0, lambda full, x: full & ~(1 << x)),
    "nemhauser_inequality": (lambda full: full, lambda full, s: full),
}


def naive_sampled_check(name, oracle, samples, seed, require_disjoint=False):
    """(holds, witness, instances_checked) of a sampled check, by samples
    draws from random.Random(seed), slot by slot: a subset slot takes
    getrandbits(m) & its mask, an element slot rng.choice of the ids outside
    its mask in ascending order, and a draw with no such id ends there and
    is not counted.  f is asked afresh for every set, and comparisons are
    exact, so f should take integer values.
    """
    m = oracle.ground_size
    full = (1 << m) - 1
    kinds, keep, violation = PROPERTIES[name]
    masks = list(SAMPLED_MASKS[name])
    if require_disjoint:  # S outside B u C
        masks[3] = lambda full, b, a, c: full & ~(b | c)
    f = lambda mask: oracle.evaluate(_members(mask))  # noqa: E731
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        t = []
        for kind, mask in zip(kinds, masks):
            within = mask(full, *t)
            if kind == "S":
                t.append(rng.getrandbits(m) & within)
                continue
            outside = [e for e in range(m) if not within >> e & 1]
            if not outside:
                break
            t.append(rng.choice(outside))
        else:
            assert keep(*t)
            checked += 1
            witness = violation(f, *t)
            if witness is not None:
                return False, witness, checked
    return True, None, checked
