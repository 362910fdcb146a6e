"""Brute-force property checkers used as ground-truth oracles.

A checker is a domain plus a violation.  The domain states the property's
quantifiers once, as slots in order: each ranges over the subsets of a mask,
or over the elements outside one, and the mask follows from the earlier
slots.  Submodularity, supermodularity of conditioning and Nemhauser's
inequality also have a local form, which an enumeration walks in place of
the quantified one: elements (D, x), pairs (D, x, y) and triples (D, x, y,
z) of elements outside D, m*2^(m-1), C(m,2)*2^(m-2) and C(m,3)*2^(m-3) of
them.  The redundancy bound's local form takes one element of C at a time:
(A, B, c) with B outside A and c outside A u B, m*3^(m-1) of them.  Each
checker states in closed form how many tuples its enumeration walks:
m*2^(m-1) for monotonicity and the marginal lower bound, the pairs for
submodularity, the pairs and triples for SoC, the elements and pairs for
Nemhauser's inequality, and m*3^(m-1) for the redundancy bound.
mode="auto" enumerates when that walk fits validation.ENUMERATION_LIMIT
(10^6: up to m = 14 for Nemhauser's inequality, 11 for the redundancy
bound), so holds=True is then a proof, and otherwise draws seeded uniform
tuples from the quantified slots one slot after another, asking f at most
once per set; mode="exhaustive" refuses a walk that does not fit before
any query.  A subset slot draws getrandbits(m) & mask; an element slot
draws getrandbits(k) until it falls below the n ids outside its mask, k =
n.bit_length(), which is the stream random.Random.choice reads on CPython
3.10-3.13, so a seed gives the same tuples there.  Draws are judged a
bounded batch at a time, so they hold O(1) memory in samples.
A violation reads f by subscript, at[mask], from the table of all 2^m
values (it fits when the walk does) when enumerating and from a lazy
per-set memo when sampling.  A witness replays through the quantified
definition.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import cache
from itertools import chain
from math import comb

from . import validation
from .errors import InvalidArgument
from .validation import at_least, check_enumeration, check_int, values_close

DEFAULT_SAMPLES = 2000

# The two kinds of slot in a checker's domain (see _run).
SUBSET, ELEMENT = "subset", "element"

# Tuples a sampled check draws before it judges them, and masks whose
# outside ids it keeps (see _draws): all of them up to m = 8.
_BATCH = 256


@dataclass(slots=True)
class VerificationReport:
    property: str
    holds: bool
    witness: dict | None
    instances_checked: int
    mode: str  # "exhaustive" or "sampled"
    form: str  # "local" or "quantified"

    to_dict = asdict


def subset_values(oracle) -> list[float]:
    """f over every subset of the ground set, indexed by bitmask.

    InstanceTooLarge, before any query, when 2^m exceeds the enumeration
    limit.
    """
    m = oracle.ground_size
    check_enumeration(1 << m, "exhaustive check", "subsets")
    members: list[tuple] = [()] * (1 << m)
    values = [0.0] * (1 << m)
    values[0] = oracle.evaluate(())
    for mask in range(1, 1 << m):
        low = mask & -mask
        members[mask] = members[mask ^ low] + (low.bit_length() - 1,)
        values[mask] = oracle.evaluate(members[mask])
    return values


class _Memo(dict):
    """f by bitmask, asked of the oracle on the first read of each set."""

    __slots__ = ("oracle",)

    def __init__(self, oracle):
        super().__init__()
        self.oracle = oracle

    def __missing__(self, mask: int) -> float:
        value = self[mask] = self.oracle.evaluate(_bits(mask))
        return value


def _bits(mask: int) -> list[int]:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def _singletons(mask: int) -> list[int]:
    """1 << e for each element e of mask, ascending."""
    return [1 << e for e in _bits(mask)]


def _submasks(mask: int) -> list[int]:
    """All submasks of mask, ascending."""
    out = [0]
    while out[-1] != mask:
        out.append((out[-1] - mask) & mask)
    return out


def check_normalized(oracle) -> VerificationReport:
    """f(empty) must be zero."""
    value = oracle.evaluate(())
    holds = values_close(value, 0.0)
    witness = None if holds else {"S": [], "value": value}
    return VerificationReport("normalized", holds, witness, 1, "exhaustive", "quantified")


def _run(name, oracle, walk, mode, samples, seed, quantified,
         local=()) -> VerificationReport:
    """Check a property given as parts (domain, violation); at[mask] is f.

    A domain is a sequence of slots (kind, within), one per quantified
    variable in order: the slot takes a subset of the mask within(full,
    *earlier) when kind is SUBSET, or one element outside it when kind is
    ELEMENT.  violation(at, t) returns a witness dict for a violating tuple
    t, else None.

    Any samples but an int >= 1 is refused.  Enumeration walks every tuple of
    each part in nested-loop order, the local parts when given and else the
    quantified part, over one list of f on all subsets, listing each slot's
    values for a given mask once per part; it visits walk tuples, which
    mode="auto" enumerates when they fit the enumeration limit and
    mode="exhaustive" refuses when they do not.  Sampling makes samples
    draws of the quantified part from random.Random(seed), an element slot
    reading the getrandbits stream random.Random.choice reads on CPython
    3.10-3.13 (see _draws), and judges them a batch of at most _BATCH at a
    time, so the draws hold O(1) memory in samples; it subscripts a memo
    that asks f once per set on first read, at most 2^m sets.
    """
    m = oracle.ground_size
    check_int(samples, "samples")
    if samples < 1:
        raise InvalidArgument(f"a check needs samples >= 1, got {samples}")
    if mode == "auto":
        mode = "exhaustive" if walk <= validation.ENUMERATION_LIMIT else "sampled"
    if mode == "exhaustive":
        check_enumeration(walk, f"exhaustive {name} check", "tuples")
        parts = local or (quantified,)
        at = subset_values(oracle)
        walks = [(_walk(domain, cache(_every), m), violation) for domain, violation in parts]
        how = ("exhaustive", "local" if local else "quantified")
    elif mode != "sampled":
        raise InvalidArgument(f"mode must be auto|exhaustive|sampled, got {mode!r}")
    else:
        domain, violation = quantified
        at = _Memo(oracle)
        draws = _draws(domain, samples, random.Random(seed), m)
        walks = [(chain.from_iterable(draws), violation)]
        how = ("sampled", "quantified")
    checked = 0
    for tuples, violation in walks:
        for checked, t in enumerate(tuples, checked + 1):
            w = violation(at, t)
            if w is not None:
                return VerificationReport(name, False, w, checked, *how)
    return VerificationReport(name, True, None, checked, *how)


def _walk(domain, values, m: int, tuples=((),)):
    """Each of tuples followed by every value of each slot in turn, lazily."""
    if not domain:
        return tuples
    (kind, within), full = domain[0], (1 << m) - 1
    return _walk(domain[1:], values, m,
                 (t + (v,) for t in tuples for v in values(kind, within(full, *t), m)))


def _every(kind, mask: int, m: int) -> list[int]:
    """Every value of a slot, in enumeration order."""
    if kind == SUBSET:
        return _submasks(mask)
    return [x for x in range(m) if not mask >> x & 1]


def _draws(domain, samples: int, rng, m: int):
    """samples uniform tuples of the domain, drawn slot by slot and yielded in
    lists of at most _BATCH; a draw with no element outside an ELEMENT slot's
    mask stops there and is not kept.

    A SUBSET slot takes getrandbits(m) & mask.  An ELEMENT slot looks its
    mask up in a dict of this call, mask -> (the n ascending ids outside it,
    n, k = n.bit_length()), and takes ids[r] for the first r = getrandbits(k)
    below n: exactly the getrandbits calls random.Random.choice(ids) makes on
    CPython 3.10-3.13, so every tuple is the one choice would draw.  Memory
    is O(1) in samples: one list of at most _BATCH tuples at a time, and a
    dict of at most _BATCH masks.
    """
    getrandbits, full, outside = rng.getrandbits, (1 << m) - 1, {}
    slots = [(kind == ELEMENT, within) for kind, within in domain]
    for left in range(samples, 0, -_BATCH):
        batch = []
        for _ in range(min(left, _BATCH)):
            t = ()
            for element, within in slots:
                mask = within(full, *t)
                if not element:
                    t += (getrandbits(m) & mask,)
                    continue
                entry = outside.get(mask)
                if entry is None:
                    ids = _every(ELEMENT, mask, m)
                    entry = ids, len(ids), len(ids).bit_length()
                    if len(outside) < _BATCH:
                        outside[mask] = entry
                ids, n, k = entry
                if not n:
                    break
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                t += (ids[r],)
            else:
                batch.append(t)
        yield batch


def _chosen_and_subset(m: int, *sizes: int) -> int:
    """Tuples of j elements in increasing order and a subset of the other
    m - j, C(m,j)*2^(m-j), summed over j in sizes."""
    return sum(comb(m, j) << m >> j for j in sizes)


# The local domains: one element (D, x), pairs (D, x, y) and triples
# (D, x, y, z) of distinct elements outside D, in increasing order.
SINGLES = ((SUBSET, lambda full: full),  # D
           (ELEMENT, lambda full, d: d))  # x outside D
PAIRS = SINGLES + ((ELEMENT, lambda full, d, x: d | (2 << x) - 1),)  # y > x outside D
TRIPLES = PAIRS + ((ELEMENT, lambda full, d, x, y: d | (2 << y) - 1),)  # z > y


def check_monotone(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A) <= f(B) for B = A + x and every x outside A: SINGLES as (A, x)."""

    def violation(at, t):
        a_mask, x = t
        b_mask = a_mask | 1 << x
        fa = at[a_mask]
        fb = at[b_mask]
        if at_least(fb, fa):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "f_A": fa, "f_B": fb}

    return _run("monotone", oracle, _chosen_and_subset(oracle.ground_size, 1),
                mode, samples, seed, (SINGLES, violation))


def _submodular_violation(at, t):
    b_mask, x, a_mask = t
    xbit = 1 << x
    lhs_a = at[a_mask | xbit] - at[a_mask]
    lhs_b = at[b_mask | xbit] - at[b_mask]
    if at_least(lhs_a, lhs_b):
        return None
    return {"A": _bits(a_mask), "B": _bits(b_mask), "x": x,
            "marginal_given_A": lhs_a, "marginal_given_B": lhs_b}


def _local_submodular(at, t):
    """f(x|D) >= f(x|D+y), as A = D and B = D + y."""
    d_mask, x, y = t
    return _submodular_violation(at, (d_mask | 1 << y, x, d_mask))


def check_submodular(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """Diminishing returns: f(x|A) >= f(x|B) for all A within B, x outside B.

    An enumeration checks the local form, f(x|D) >= f(x|D+y) for x < y
    outside D: f(x|D) - f(x|D+y) is symmetric in x and y, and A grows to B
    one element at a time.  Sampling draws from the quantified domain.
    """
    domain = ((SUBSET, lambda full: full),  # B
              (ELEMENT, lambda full, b: b),  # x outside B
              (SUBSET, lambda full, b, x: b))  # A within B
    return _run("submodular", oracle, _chosen_and_subset(oracle.ground_size, 2),
                mode, samples, seed, (domain, _submodular_violation),
                ((PAIRS, _local_submodular),))


def _soc_violation(at, t):
    b_mask, a_mask, c_mask, s_mask = t
    f_sa = at[s_mask | a_mask] - at[a_mask]
    f_sac = at[s_mask | a_mask | c_mask] - at[a_mask | c_mask]
    f_sb = at[s_mask | b_mask] - at[b_mask]
    f_sbc = at[s_mask | b_mask | c_mask] - at[b_mask | c_mask]
    lhs = f_sa - f_sac
    rhs = f_sb - f_sbc
    if at_least(lhs, rhs):
        return None
    return {
        "S": _bits(s_mask), "A": _bits(a_mask), "B": _bits(b_mask),
        "C": _bits(c_mask), "lhs": lhs, "rhs": rhs,
    }


def _local_soc_pair(at, t):
    """S = C = {x}, A = D, B = D + y: I({x};{x}|A) = f(x|A), submodularity."""
    d_mask, x, y = t
    return _soc_violation(at, (d_mask | 1 << y, d_mask, 1 << x, 1 << x))


def _local_soc_triple(at, t):
    """S = {x}, A = D, B = D + y, C = {z}: lhs - rhs is the third difference."""
    d_mask, x, y, z = t
    return _soc_violation(at, (d_mask | 1 << y, d_mask, 1 << z, 1 << x))


def check_supermodularity_of_conditioning(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
    require_disjoint: bool = False,
) -> VerificationReport:
    """I(S;C|A) >= I(S;C|B) for A within B, C outside B, where
    I(S;C|A) = f(S|A) - f(S|A u C).

    The definition leaves S unconstrained; require_disjoint additionally
    keeps S outside B u C.  Sampling draws from this quantified domain.

    An enumeration checks the local form instead.  With S unconstrained it
    is f(x|D) >= f(x|D+y) on the pairs (submodularity) and the third
    difference d_x d_y d_z f(D) >= 0 on the triples, where d_x g(E) =
    g(E+x) - g(E); with require_disjoint it is the triples alone.  Each local
    tuple is an instance of the definition (A = D, B = D + y, S = {x}, and
    C = {x} or {z}), so its witness replays as one.  Conversely, take A
    within B and C outside B, and grow A to B one element y at a time: it
    suffices that I(S;C|A) >= I(S;C|A+y) for y outside A u C.
    - S&A drops out of I, since S u A = (S - A) u A.  Take S outside A.
    - I is non-decreasing in S under submodularity: adding s to S adds
      f(s|A u S) - f(s|A u S u C) >= 0.  So when y is in S, I(S;C|A) >=
      I(S-y;C|A) and I(S;C|A+y) = I(S-y;C|A+y).  Take y outside S.
    - The chain rule splits U = S&C off as a plain marginal f(U|A):
      I(S;C|A) = f(U|A) + I(S-U; C-U | A u U), and f(U|A) >= f(U|A+y) is
      submodularity.  Take S and C disjoint.
    - For disjoint S and C, I telescopes into single-element terms,
      I(S;C|A) = sum over i, j of I(s_i; c_j | A u {s_1..s_i-1} u
      {c_1..c_j-1}), and each term gives I(s;c|E) - I(s;c|E+y) =
      d_s d_c d_y f(E) >= 0, a local triple.
    With require_disjoint, S misses B and C, hence A and y, and only the
    last step arises, so the triples suffice.  In exact arithmetic the two
    forms agree.  With at_least they can split on a near-tie: a quantified
    gap is a sum of many local gaps, each within the tolerance, whose sum
    need not be.
    """
    domain = ((SUBSET, lambda full: full),  # B
              (SUBSET, lambda full, b: b),  # A within B
              (SUBSET, lambda full, b, a: full ^ b),  # C outside B
              (SUBSET, lambda full, b, a, c:  # S
               full ^ (b | c) if require_disjoint else full))
    local, sizes = ((TRIPLES, _local_soc_triple),), (3,)
    if not require_disjoint:
        local, sizes = ((PAIRS, _local_soc_pair),) + local, (2, 3)
    return _run("supermodularity_of_conditioning", oracle,
                _chosen_and_subset(oracle.ground_size, *sizes), mode, samples, seed,
                (domain, _soc_violation), local)


def check_pairwise_redundancy_bound(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A|B) - f(A|B,C) <= sum over c in C of f(c) - f(c|A), disjoint A,B,C.

    An enumeration checks the local form, C = {c}: f(A|B) - f(A|B+c) <=
    f(c) - f(c|A) for B outside A and c outside A u B, m*3^(m-1) tuples
    (A, B, c), each an instance of the definition, so its witness replays
    as one.  Conversely, with C = {c_1..c_k} and C_<j = {c_1..c_j-1}, the
    chain rule gives f(A|B) - f(A|B u C) = sum over j of f(A|B u C_<j) -
    f(A|B u C_<j+c_j), and each term is a local tuple with B' = B u C_<j,
    bounded by f(c_j) - f(c_j|A).  Sampling draws from the quantified
    domain.  The forms agree in exact arithmetic; with at_least they can
    split on a near-tie, where a quantified gap sums local gaps that each
    fall within the tolerance.
    """
    domain = ((SUBSET, lambda full: full),  # A
              (SUBSET, lambda full, a: full ^ a),  # B outside A
              (SUBSET, lambda full, a, b: full ^ a ^ b))  # C outside A u B
    singletons = cache(_singletons)

    def violation(at, t):
        a_mask, b_mask, c_mask = t
        lhs = (at[a_mask | b_mask] - at[b_mask]) - (
            at[a_mask | b_mask | c_mask] - at[b_mask | c_mask]
        )
        rhs = 0.0
        for cbit in singletons(c_mask):
            rhs += at[cbit] - (at[a_mask | cbit] - at[a_mask])
        if at_least(rhs, lhs):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "C": _bits(c_mask),
                "lhs": lhs, "rhs": rhs}

    local = (domain[:2] + ((ELEMENT, lambda full, a, b: a | b),),  # c outside A u B
             lambda at, t: violation(at, (t[0], t[1], 1 << t[2])))
    m = oracle.ground_size
    return _run("pairwise_redundancy_bound", oracle, m * 3 ** m // 3, mode,
                samples, seed, (domain, violation), (local,))


def check_marginal_lower_bound(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(x|S) >= f(x) - sum over S of (f(x) - f(x|x_j)).

    The sum is folded in ascending j, so the estimate at S is the estimate
    at S less its highest element, minus that element's term.  Estimates
    are kept by S while the tuples keep one x.  An enumeration walks every S
    of one x in ascending order, so it finds each predecessor kept and pays
    one term per tuple; a sampled S whose predecessor is not kept folds it
    afresh.
    """
    domain = ((ELEMENT, lambda full: 0),  # x
              (SUBSET, lambda full, x: full ^ 1 << x))  # S without x
    held_x, lows = None, {}  # lows[S] is the lower estimate of held_x given S

    def violation(at, t):
        nonlocal held_x, lows
        x, s_mask = t
        xbit = 1 << x
        true_marginal = at[s_mask | xbit] - at[s_mask]
        fx = at[xbit]
        if x != held_x:
            held_x, lows = x, {0: fx}
        low = fx
        if s_mask:
            top = 1 << s_mask.bit_length() - 1
            rest = s_mask ^ top
            if rest in lows:
                low = lows[rest]
            else:
                for y in _bits(rest):
                    low -= fx - (at[xbit | 1 << y] - at[1 << y])
            low = lows[s_mask] = low - (fx - (at[xbit | top] - at[top]))
        if at_least(true_marginal, low):
            return None
        return {"x": x, "S": _bits(s_mask),
                "marginal": true_marginal, "lower_estimate": low}

    return _run("marginal_lower_bound", oracle,
                _chosen_and_subset(oracle.ground_size, 1), mode, samples, seed,
                (domain, violation))


def check_nemhauser_inequality(
    oracle,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(T) <= f(S) + sum over x in T\\S of f(x|S) for all S and T, which
    holds exactly when f is monotone and submodular (Nemhauser, Wolsey and
    Fisher, 1978).

    An enumeration checks the local form: f(D) <= f(D+x) on SINGLES (S =
    D + x, T = D), then f(y|D+x) <= f(y|D) on PAIRS (S = D, T = D + x + y).
    Each local tuple is an instance, so its witness replays as one.
    Conversely the singles give monotonicity and the pairs submodularity
    (see check_submodular), and then, with T\\S = {t_1..t_k}, f(T) <= f(S u
    T) = f(S) + sum of f(t_i | S u {t_1..t_i-1}) <= f(S) + sum of f(t_i|S).
    Sampling draws from the quantified domain.  The forms agree in exact
    arithmetic; with at_least they can split on a near-tie, where a
    quantified gap sums local gaps that each fall within the tolerance.
    """
    domain = ((SUBSET, lambda full: full),  # S
              (SUBSET, lambda full, s: full))  # T
    singletons = cache(_singletons)

    def violation(at, t):
        s_mask, t_mask = t
        f_t = at[t_mask]
        bound = at[s_mask]
        for xbit in singletons(t_mask & ~s_mask):
            bound += at[s_mask | xbit] - at[s_mask]
        if at_least(bound, f_t):
            return None
        return {"S": _bits(s_mask), "T": _bits(t_mask), "f_T": f_t, "bound": bound}

    local = ((SINGLES, lambda at, t: violation(at, (t[0] | 1 << t[1], t[0]))),
             (PAIRS, lambda at, t: violation(at, (t[0], t[0] | 1 << t[1] | 1 << t[2]))))
    return _run("nemhauser_inequality", oracle,
                _chosen_and_subset(oracle.ground_size, 1, 2), mode, samples, seed,
                (domain, violation), local)


ALL_CHECKS = {
    "normalized": check_normalized,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "supermodularity_of_conditioning": check_supermodularity_of_conditioning,
    "pairwise_redundancy_bound": check_pairwise_redundancy_bound,
    "marginal_lower_bound": check_marginal_lower_bound,
    "nemhauser_inequality": check_nemhauser_inequality,
}
