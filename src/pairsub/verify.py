"""Brute-force property checkers used as ground-truth oracles.

Each checker enumerates the property's quantifier space exhaustively when
the ground set is small enough (tuple spaces grow like 3^m or 4^m), and
falls back to seeded uniform sampling above the limit.  A failed check
always carries a witness that replays through plain oracle evaluations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import InstanceTooLarge, InvalidArgument
from .validation import at_least, values_close

# Default exhaustive limits: two-set properties stay cheap through m=12,
# four-set tuple spaces (SoC, redundancy bound) blow up past m=8.
LIMIT_TWO_SET = 12
LIMIT_SUBMODULAR = 8
LIMIT_FOUR_SET = 8
LIMIT_LOWER_BOUND = 10
DEFAULT_SAMPLES = 2000


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
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return sorted(out)


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


def _run(name, oracle, exhaustive_limit, mode, samples, seed, space, draw,
         violation, memo=True) -> VerificationReport:
    """Check violation(at, t) on every tuple of space(m), or on samples draws.

    Enumeration reads f from one table over all subsets.  A draw is
    draw(rng, m), or None when it has nothing to check; None draws are not
    counted.  Sampled checks memoise f per bitmask unless memo is off, in
    which case every lookup asks the oracle afresh.
    """
    m = oracle.ground_size
    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        at = subset_values(oracle).__getitem__
        tuples = space(m)
    else:
        if memo:
            cache: dict[int, float] = {}

            def at(mask: int) -> float:
                if mask not in cache:
                    cache[mask] = oracle.evaluate(_bits(mask))
                return cache[mask]
        else:
            def at(mask: int) -> float:
                return oracle.evaluate(_bits(mask))
        rng = random.Random(seed)
        tuples = (t for t in (draw(rng, m) for _ in range(samples)) if t is not None)
    checked = 0
    for t in tuples:
        checked += 1
        w = violation(at, t)
        if w is not None:
            return VerificationReport(name, False, w, checked)
    return VerificationReport(name, True, None, checked)


def _outside(rng, mask: int, m: int):
    """A uniform element outside mask, or None when mask is everything."""
    outside = [x for x in range(m) if not mask & (1 << x)]
    return rng.choice(outside) if outside else None


def check_monotone(
    oracle,
    exhaustive_limit: int = LIMIT_TWO_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A) <= f(B) along every single-element extension chain."""

    def space(m):
        for a_mask in range(1 << m):
            for x in range(m):
                if not a_mask & (1 << x):
                    yield a_mask, a_mask | (1 << x)

    def draw(rng, m):  # A = X has no x to add
        a_mask = rng.getrandbits(m)
        x = _outside(rng, a_mask, m)
        return None if x is None else (a_mask, a_mask | (1 << x))

    def violation(at, t):
        a_mask, b_mask = t
        fa = at(a_mask)
        fb = at(b_mask)
        if at_least(fb, fa):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "f_A": fa, "f_B": fb}

    return _run("monotone", oracle, exhaustive_limit, mode, samples, seed,
                space, draw, violation, memo=False)


def check_submodular(
    oracle,
    exhaustive_limit: int = LIMIT_SUBMODULAR,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """Diminishing returns: f(x|A) >= f(x|B) for all A within B, x outside B."""

    def space(m):
        for b_mask in range(1 << m):
            subs = _submasks(b_mask)
            for x in range(m):
                if not b_mask & (1 << x):
                    for a_mask in subs:
                        yield a_mask, b_mask, x

    def draw(rng, m):  # B = X has no x outside B
        b_mask = rng.getrandbits(m)
        x = _outside(rng, b_mask, m)
        return None if x is None else (rng.getrandbits(m) & b_mask, b_mask, x)

    def violation(at, t):
        a_mask, b_mask, x = t
        xbit = 1 << x
        lhs_a = at(a_mask | xbit) - at(a_mask)
        lhs_b = at(b_mask | xbit) - at(b_mask)
        if at_least(lhs_a, lhs_b):
            return None
        return {"A": _bits(a_mask), "B": _bits(b_mask), "x": x,
                "marginal_given_A": lhs_a, "marginal_given_B": lhs_b}

    return _run("submodular", oracle, exhaustive_limit, mode, samples, seed,
                space, draw, violation, memo=False)


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
    skips tuples where S overlaps B u C.
    """

    def space(m):
        full = (1 << m) - 1
        for b_mask in range(1 << m):
            c_masks = _submasks(full ^ b_mask)
            for a_mask in _submasks(b_mask):
                for c_mask in c_masks:
                    for s_mask in range(1 << m):
                        if not (require_disjoint and s_mask & (b_mask | c_mask)):
                            yield s_mask, a_mask, b_mask, c_mask

    def draw(rng, m):
        full = (1 << m) - 1
        b_mask = rng.getrandbits(m)
        a_mask = rng.getrandbits(m) & b_mask
        c_mask = rng.getrandbits(m) & (full ^ b_mask)
        s_mask = rng.getrandbits(m)
        if require_disjoint:
            s_mask &= full ^ (b_mask | c_mask)
        return s_mask, a_mask, b_mask, c_mask

    def violation(at, t):
        s_mask, a_mask, b_mask, c_mask = t
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
                samples, seed, space, draw, violation)


def check_pairwise_redundancy_bound(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A|B) - f(A|B,C) <= sum over c in C of f(c) - f(c|A), disjoint A,B,C."""

    def space(m):
        full = (1 << m) - 1
        for a_mask in range(1 << m):
            rest = full ^ a_mask
            for b_mask in _submasks(rest):
                for c_mask in _submasks(rest ^ b_mask):
                    yield a_mask, b_mask, c_mask

    def draw(rng, m):
        full = (1 << m) - 1
        a_mask = rng.getrandbits(m)
        b_mask = rng.getrandbits(m) & (full ^ a_mask)
        return a_mask, b_mask, rng.getrandbits(m) & (full ^ a_mask ^ b_mask)

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
                samples, seed, space, draw, violation)


def check_marginal_lower_bound(
    oracle,
    exhaustive_limit: int = LIMIT_LOWER_BOUND,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(x|S) >= f(x) - sum over S of (f(x) - f(x|x_j))."""

    def space(m):
        for x in range(m):
            for s_mask in range(1 << m):
                if not s_mask & (1 << x):
                    yield x, s_mask

    def draw(rng, m):
        x = rng.randrange(m)
        return x, rng.getrandbits(m) & ~(1 << x)

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
                samples, seed, space, draw, violation)


def check_nemhauser_inequality(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(T) <= f(S) + sum over x in T\\S of f(x|S); characterizes monotone
    submodularity."""

    def space(m):
        for s_mask in range(1 << m):
            for t_mask in range(1 << m):
                yield s_mask, t_mask

    def draw(rng, m):
        return rng.getrandbits(m), rng.getrandbits(m)

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
                samples, seed, space, draw, violation)


ALL_CHECKS = {
    "normalized": check_normalized,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "supermodularity_of_conditioning": check_supermodularity_of_conditioning,
    "pairwise_redundancy_bound": check_pairwise_redundancy_bound,
    "marginal_lower_bound": check_marginal_lower_bound,
    "nemhauser_inequality": check_nemhauser_inequality,
}
