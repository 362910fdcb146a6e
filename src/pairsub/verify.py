"""Brute-force property checkers used as ground-truth oracles.

A checker is a domain plus a violation.  The domain states the property's
quantifiers once, as slots in order: each ranges over the subsets of a mask,
or over the elements outside one, and the mask follows from the earlier
slots.  _run enumerates every tuple of the domain when the ground set is
small enough (tuple spaces grow like 3^m or 4^m), and otherwise draws seeded
uniform tuples from the same slots, asking f at most once per set.  A failed
check always carries a witness that replays through plain oracle
evaluations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import repeat

from .errors import InstanceTooLarge, InvalidArgument
from .validation import at_least, values_close

# Default exhaustive limits: two-set properties stay cheap through m=12,
# four-set tuple spaces (SoC, redundancy bound) blow up past m=8.
LIMIT_TWO_SET = 12
LIMIT_SUBMODULAR = 8
LIMIT_FOUR_SET = 8
LIMIT_LOWER_BOUND = 10
DEFAULT_SAMPLES = 2000

# The two kinds of slot in a checker's domain (see _run).
SUBSET, ELEMENT = "subset", "element"


@dataclass
class VerificationReport:
    property: str
    holds: bool
    witness: dict | None
    instances_checked: int

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witness": self.witness,
            "instances_checked": self.instances_checked,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def subset_values(oracle) -> list[float]:
    """f over every subset of the ground set, indexed by bitmask."""
    m = oracle.ground_size
    members: list[tuple] = [()] * (1 << m)
    values = [0.0] * (1 << m)
    values[0] = oracle.evaluate(())
    for mask in range(1, 1 << m):
        low = mask & -mask
        members[mask] = members[mask ^ low] + (low.bit_length() - 1,)
        values[mask] = oracle.evaluate(members[mask])
    return values


def _bits(mask: int) -> list[int]:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return out


def _submasks(mask: int) -> list[int]:
    """All submasks of mask, ascending."""
    out = [0]
    while out[-1] != mask:
        out.append((out[-1] - mask) & mask)
    return out


def _mode_exhaustive(m: int, exhaustive_limit: int, mode: str, samples: int) -> bool:
    """Whether to enumerate; a check that samples must draw at least once."""
    if mode == "exhaustive":
        if m > exhaustive_limit:
            raise InstanceTooLarge(
                f"exhaustive check requested for m={m} above limit {exhaustive_limit}"
            )
        return True
    if mode not in ("auto", "sampled"):
        raise InvalidArgument(f"mode must be auto|exhaustive|sampled, got {mode!r}")
    if mode == "auto" and m <= exhaustive_limit:
        return True
    if samples < 1:
        raise InvalidArgument(f"a sampled check needs samples >= 1, got {samples}")
    return False


def check_normalized(oracle) -> VerificationReport:
    """f(empty) must be zero."""
    value = oracle.evaluate(())
    holds = values_close(value, 0.0)
    witness = None if holds else {"S": [], "value": value}
    return VerificationReport("normalized", holds, witness, 1)


def _run(name, oracle, exhaustive_limit, mode, samples, seed, domain,
         violation) -> VerificationReport:
    """Check violation(at, t) on the tuples t of domain.

    A domain is a sequence of slots (kind, within), one per quantified
    variable in order: the slot takes a subset of the mask within(full,
    *earlier) when kind is SUBSET, or one element outside it when kind is
    ELEMENT.  Enumeration walks every tuple in nested-loop order and reads f
    from one table over all subsets.  Sampling draws samples tuples slot by
    slot from random.Random(seed) and asks f at most once per set; a draw
    with no element outside an ELEMENT slot's mask stops there and is not
    counted.
    """
    m = oracle.ground_size
    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        at = subset_values(oracle).__getitem__
        tuples, values = [()], _every
    else:
        cache: dict[int, float] = {}

        def at(mask: int) -> float:
            if mask not in cache:
                cache[mask] = oracle.evaluate(_bits(mask))
            return cache[mask]
        tuples, values = repeat((), samples), _uniform(random.Random(seed))
    for kind, within in domain:
        tuples = _extend(tuples, values, kind, within, m)
    checked = 0
    for t in tuples:
        checked += 1
        w = violation(at, t)
        if w is not None:
            return VerificationReport(name, False, w, checked)
    return VerificationReport(name, True, None, checked)


def _every(kind, mask: int, m: int) -> list[int]:
    """Every value of a slot, in enumeration order."""
    if kind == SUBSET:
        return _submasks(mask)
    return [x for x in range(m) if not mask >> x & 1]


def _uniform(rng):
    """A slot's values as one uniform draw, or none when no element is outside."""
    def values(kind, mask: int, m: int) -> tuple:
        if kind == SUBSET:
            return (rng.getrandbits(m) & mask,)
        outside = _every(ELEMENT, mask, m)
        return (rng.choice(outside),) if outside else ()
    return values


def _extend(tuples, values, kind, within, m: int):
    """Each tuple followed by each of the next slot's values, lazily."""
    full = (1 << m) - 1
    return (t + (v,) for t in tuples for v in values(kind, within(full, *t), m))


def check_monotone(
    oracle,
    exhaustive_limit: int = LIMIT_TWO_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A) <= f(B) along every single-element extension chain."""
    domain = ((SUBSET, lambda full: full),  # A
              (ELEMENT, lambda full, a: a))  # x outside A, B = A + x

    def violation(at, t):
        a_mask, x = t
        b_mask = a_mask | 1 << x
        fa = at(a_mask)
        fb = at(b_mask)
        if at_least(fb, fa):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "f_A": fa, "f_B": fb}

    return _run("monotone", oracle, exhaustive_limit, mode, samples, seed,
                domain, violation)


def check_submodular(
    oracle,
    exhaustive_limit: int = LIMIT_SUBMODULAR,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """Diminishing returns: f(x|A) >= f(x|B) for all A within B, x outside B."""
    domain = ((SUBSET, lambda full: full),  # B
              (ELEMENT, lambda full, b: b),  # x outside B
              (SUBSET, lambda full, b, x: b))  # A within B

    def violation(at, t):
        b_mask, x, a_mask = t
        xbit = 1 << x
        lhs_a = at(a_mask | xbit) - at(a_mask)
        lhs_b = at(b_mask | xbit) - at(b_mask)
        if at_least(lhs_a, lhs_b):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "x": x,
                "marginal_given_A": lhs_a, "marginal_given_B": lhs_b}

    return _run("submodular", oracle, exhaustive_limit, mode, samples, seed,
                domain, violation)


def check_supermodularity_of_conditioning(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
    require_disjoint: bool = False,
) -> VerificationReport:
    """f(S|A) - f(S|A,C) >= f(S|B) - f(S|B,C) for A within B, C outside B.

    The definition leaves S unconstrained; require_disjoint additionally
    keeps S outside B u C.
    """
    domain = ((SUBSET, lambda full: full),  # B
              (SUBSET, lambda full, b: b),  # A within B
              (SUBSET, lambda full, b, a: full ^ b),  # C outside B
              (SUBSET, lambda full, b, a, c:  # S
               full ^ (b | c) if require_disjoint else full))

    def violation(at, t):
        b_mask, a_mask, c_mask, s_mask = t
        f_sa = at(s_mask | a_mask) - at(a_mask)
        f_sac = at(s_mask | a_mask | c_mask) - at(a_mask | c_mask)
        f_sb = at(s_mask | b_mask) - at(b_mask)
        f_sbc = at(s_mask | b_mask | c_mask) - at(b_mask | c_mask)
        lhs = f_sa - f_sac
        rhs = f_sb - f_sbc
        if at_least(lhs, rhs):
            return None
        return {
            "S": _bits(s_mask), "A": _bits(a_mask), "B": _bits(b_mask),
            "C": _bits(c_mask), "lhs": lhs, "rhs": rhs,
        }

    return _run("supermodularity_of_conditioning", oracle, exhaustive_limit, mode,
                samples, seed, domain, violation)


def check_pairwise_redundancy_bound(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A|B) - f(A|B,C) <= sum over c in C of f(c) - f(c|A), disjoint A,B,C."""
    domain = ((SUBSET, lambda full: full),  # A
              (SUBSET, lambda full, a: full ^ a),  # B outside A
              (SUBSET, lambda full, a, b: full ^ a ^ b))  # C outside A u B

    def violation(at, t):
        a_mask, b_mask, c_mask = t
        lhs = (at(a_mask | b_mask) - at(b_mask)) - (
            at(a_mask | b_mask | c_mask) - at(b_mask | c_mask)
        )
        rhs = 0.0
        for c in _bits(c_mask):
            cbit = 1 << c
            rhs += at(cbit) - (at(a_mask | cbit) - at(a_mask))
        if at_least(rhs, lhs):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "C": _bits(c_mask),
                "lhs": lhs, "rhs": rhs}

    return _run("pairwise_redundancy_bound", oracle, exhaustive_limit, mode,
                samples, seed, domain, violation)


def check_marginal_lower_bound(
    oracle,
    exhaustive_limit: int = LIMIT_LOWER_BOUND,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(x|S) >= f(x) - sum over S of (f(x) - f(x|x_j))."""
    domain = ((ELEMENT, lambda full: 0),  # x
              (SUBSET, lambda full, x: full ^ 1 << x))  # S without x

    def violation(at, t):
        x, s_mask = t
        true_marginal = at(s_mask | (1 << x)) - at(s_mask)
        fx = at(1 << x)
        low = fx
        for y in _bits(s_mask):
            low -= fx - (at((1 << x) | (1 << y)) - at(1 << y))
        if at_least(true_marginal, low):
            return None
        return {"x": x, "S": _bits(s_mask),
                "marginal": true_marginal, "lower_estimate": low}

    return _run("marginal_lower_bound", oracle, exhaustive_limit, mode,
                samples, seed, domain, violation)


def check_nemhauser_inequality(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(T) <= f(S) + sum over x in T\\S of f(x|S); characterizes monotone
    submodularity."""
    domain = ((SUBSET, lambda full: full),  # S
              (SUBSET, lambda full, s: full))  # T

    def violation(at, t):
        s_mask, t_mask = t
        f_t = at(t_mask)
        bound = at(s_mask)
        for x in _bits(t_mask & ~s_mask):
            bound += at(s_mask | (1 << x)) - at(s_mask)
        if at_least(bound, f_t):
            return None
        return {"S": _bits(s_mask), "T": _bits(t_mask), "f_T": f_t, "bound": bound}

    return _run("nemhauser_inequality", oracle, exhaustive_limit, mode,
                samples, seed, domain, violation)


ALL_CHECKS = {
    "normalized": check_normalized,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "supermodularity_of_conditioning": check_supermodularity_of_conditioning,
    "pairwise_redundancy_bound": check_pairwise_redundancy_bound,
    "marginal_lower_bound": check_marginal_lower_bound,
    "nemhauser_inequality": check_nemhauser_inequality,
}
