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
from .validation import at_least, tolerance, values_close

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


def check_monotone(
    oracle,
    exhaustive_limit: int = LIMIT_TWO_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A) <= f(B) along every single-element extension chain."""
    m = oracle.ground_size
    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        checked = 0
        for mask in range(1 << m):
            fa = values[mask]
            for x in range(m):
                if mask & (1 << x):
                    continue
                checked += 1
                fb = values[mask | (1 << x)]
                if not at_least(fb, fa):
                    return VerificationReport(
                        "monotone",
                        False,
                        {"A": _bits(mask), "B": _bits(mask | (1 << x)),
                         "f_A": fa, "f_B": fb},
                        checked,
                    )
        return VerificationReport("monotone", True, None, checked)

    rng = random.Random(seed)
    checked = 0  # draws with A = X have no x to add and are not counted
    for _ in range(samples):
        a_mask = rng.getrandbits(m)
        outside = [x for x in range(m) if not a_mask & (1 << x)]
        if not outside:
            continue
        checked += 1
        x = rng.choice(outside)
        fa = oracle.evaluate(_bits(a_mask))
        fb = oracle.evaluate(_bits(a_mask | (1 << x)))
        if not at_least(fb, fa):
            return VerificationReport(
                "monotone", False,
                {"A": _bits(a_mask), "B": _bits(a_mask | (1 << x)),
                 "f_A": fa, "f_B": fb},
                checked,
            )
    return VerificationReport("monotone", True, None, checked)


def check_submodular(
    oracle,
    exhaustive_limit: int = LIMIT_SUBMODULAR,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """Diminishing returns: f(x|A) >= f(x|B) for all A within B, x outside B."""
    m = oracle.ground_size
    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        checked = 0
        for b_mask in range(1 << m):
            subs = _submasks(b_mask)
            for x in range(m):
                xbit = 1 << x
                if b_mask & xbit:
                    continue
                lhs_b = values[b_mask | xbit] - values[b_mask]
                for a_mask in subs:
                    checked += 1
                    lhs_a = values[a_mask | xbit] - values[a_mask]
                    if not at_least(lhs_a, lhs_b):
                        return VerificationReport(
                            "submodular", False,
                            {"A": _bits(a_mask), "B": _bits(b_mask), "x": x,
                             "marginal_given_A": lhs_a, "marginal_given_B": lhs_b},
                            checked,
                        )
        return VerificationReport("submodular", True, None, checked)

    rng = random.Random(seed)
    checked = 0  # draws with B = X have no x outside B and are not counted
    for _ in range(samples):
        b_mask = rng.getrandbits(m)
        outside = [x for x in range(m) if not b_mask & (1 << x)]
        if not outside:
            continue
        checked += 1
        x = rng.choice(outside)
        a_mask = rng.getrandbits(m) & b_mask
        xbit = 1 << x
        lhs_a = oracle.evaluate(_bits(a_mask | xbit)) - oracle.evaluate(_bits(a_mask))
        lhs_b = oracle.evaluate(_bits(b_mask | xbit)) - oracle.evaluate(_bits(b_mask))
        if not at_least(lhs_a, lhs_b):
            return VerificationReport(
                "submodular", False,
                {"A": _bits(a_mask), "B": _bits(b_mask), "x": x,
                 "marginal_given_A": lhs_a, "marginal_given_B": lhs_b},
                checked,
            )
    return VerificationReport("submodular", True, None, checked)


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
    m = oracle.ground_size
    full = (1 << m) - 1

    def violation(values_at, s_mask, a_mask, b_mask, c_mask):
        f_sa = values_at(s_mask | a_mask) - values_at(a_mask)
        f_sac = values_at(s_mask | a_mask | c_mask) - values_at(a_mask | c_mask)
        f_sb = values_at(s_mask | b_mask) - values_at(b_mask)
        f_sbc = values_at(s_mask | b_mask | c_mask) - values_at(b_mask | c_mask)
        lhs = f_sa - f_sac
        rhs = f_sb - f_sbc
        if at_least(lhs, rhs):
            return None
        return {
            "S": _bits(s_mask), "A": _bits(a_mask), "B": _bits(b_mask),
            "C": _bits(c_mask), "lhs": lhs, "rhs": rhs,
        }

    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        at = values.__getitem__
        checked = 0
        for b_mask in range(1 << m):
            a_masks = _submasks(b_mask)
            c_masks = _submasks(full ^ b_mask)
            for a_mask in a_masks:
                for c_mask in c_masks:
                    for s_mask in range(1 << m):
                        if require_disjoint and s_mask & (b_mask | c_mask):
                            continue
                        checked += 1
                        w = violation(at, s_mask, a_mask, b_mask, c_mask)
                        if w is not None:
                            return VerificationReport(
                                "supermodularity_of_conditioning", False, w, checked
                            )
        return VerificationReport(
            "supermodularity_of_conditioning", True, None, checked
        )

    rng = random.Random(seed)
    cache: dict[int, float] = {}

    def at(mask: int) -> float:
        if mask not in cache:
            cache[mask] = oracle.evaluate(_bits(mask))
        return cache[mask]

    for i in range(samples):
        b_mask = rng.getrandbits(m)
        a_mask = rng.getrandbits(m) & b_mask
        c_mask = rng.getrandbits(m) & (full ^ b_mask)
        s_mask = rng.getrandbits(m)
        if require_disjoint:
            s_mask &= full ^ (b_mask | c_mask)
        w = violation(at, s_mask, a_mask, b_mask, c_mask)
        if w is not None:
            return VerificationReport(
                "supermodularity_of_conditioning", False, w, i + 1
            )
    return VerificationReport("supermodularity_of_conditioning", True, None, samples)


def check_pairwise_redundancy_bound(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(A|B) - f(A|B,C) <= sum over c in C of f(c) - f(c|A), disjoint A,B,C."""
    m = oracle.ground_size
    full = (1 << m) - 1

    def violation(at, a_mask, b_mask, c_mask):
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

    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        at = values.__getitem__
        checked = 0
        for a_mask in range(1 << m):
            rest = full ^ a_mask
            for b_mask in _submasks(rest):
                for c_mask in _submasks(rest ^ b_mask):
                    checked += 1
                    w = violation(at, a_mask, b_mask, c_mask)
                    if w is not None:
                        return VerificationReport(
                            "pairwise_redundancy_bound", False, w, checked
                        )
        return VerificationReport("pairwise_redundancy_bound", True, None, checked)

    rng = random.Random(seed)
    cache: dict[int, float] = {}

    def at(mask: int) -> float:
        if mask not in cache:
            cache[mask] = oracle.evaluate(_bits(mask))
        return cache[mask]

    for i in range(samples):
        a_mask = rng.getrandbits(m)
        b_mask = rng.getrandbits(m) & (full ^ a_mask)
        c_mask = rng.getrandbits(m) & (full ^ a_mask ^ b_mask)
        w = violation(at, a_mask, b_mask, c_mask)
        if w is not None:
            return VerificationReport("pairwise_redundancy_bound", False, w, i + 1)
    return VerificationReport("pairwise_redundancy_bound", True, None, samples)


def check_marginal_lower_bound(
    oracle,
    exhaustive_limit: int = LIMIT_LOWER_BOUND,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(x|S) >= f(x) - sum over S of (f(x) - f(x|x_j))."""
    m = oracle.ground_size

    def lower(at, x, s_mask):
        fx = at(1 << x)
        value = fx
        for y in _bits(s_mask):
            value -= fx - (at((1 << x) | (1 << y)) - at(1 << y))
        return value

    def violation(at, x, s_mask):
        true_marginal = at(s_mask | (1 << x)) - at(s_mask)
        low = lower(at, x, s_mask)
        if at_least(true_marginal, low):
            return None
        return {"x": x, "S": _bits(s_mask),
                "marginal": true_marginal, "lower_estimate": low}

    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        at = values.__getitem__
        checked = 0
        for x in range(m):
            xbit = 1 << x
            for s_mask in range(1 << m):
                if s_mask & xbit:
                    continue
                checked += 1
                w = violation(at, x, s_mask)
                if w is not None:
                    return VerificationReport(
                        "marginal_lower_bound", False, w, checked
                    )
        return VerificationReport("marginal_lower_bound", True, None, checked)

    rng = random.Random(seed)
    cache: dict[int, float] = {}

    def at(mask: int) -> float:
        if mask not in cache:
            cache[mask] = oracle.evaluate(_bits(mask))
        return cache[mask]

    for i in range(samples):
        x = rng.randrange(m)
        s_mask = rng.getrandbits(m) & ~(1 << x)
        w = violation(at, x, s_mask)
        if w is not None:
            return VerificationReport("marginal_lower_bound", False, w, i + 1)
    return VerificationReport("marginal_lower_bound", True, None, samples)


def check_nemhauser_inequality(
    oracle,
    exhaustive_limit: int = LIMIT_FOUR_SET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    mode: str = "auto",
) -> VerificationReport:
    """f(T) <= f(S) + sum over x in T\\S of f(x|S); characterizes monotone
    submodularity."""
    m = oracle.ground_size

    def violation(at, s_mask, t_mask):
        f_t = at(t_mask)
        bound = at(s_mask)
        for x in _bits(t_mask & ~s_mask):
            bound += at(s_mask | (1 << x)) - at(s_mask)
        if at_least(bound, f_t):
            return None
        return {"S": _bits(s_mask), "T": _bits(t_mask), "f_T": f_t, "bound": bound}

    if _mode_exhaustive(m, exhaustive_limit, mode, samples):
        values = subset_values(oracle)
        at = values.__getitem__
        checked = 0
        for s_mask in range(1 << m):
            for t_mask in range(1 << m):
                checked += 1
                w = violation(at, s_mask, t_mask)
                if w is not None:
                    return VerificationReport(
                        "nemhauser_inequality", False, w, checked
                    )
        return VerificationReport("nemhauser_inequality", True, None, checked)

    rng = random.Random(seed)
    cache: dict[int, float] = {}

    def at(mask: int) -> float:
        if mask not in cache:
            cache[mask] = oracle.evaluate(_bits(mask))
        return cache[mask]

    for i in range(samples):
        w = violation(at, rng.getrandbits(m), rng.getrandbits(m))
        if w is not None:
            return VerificationReport("nemhauser_inequality", False, w, i + 1)
    return VerificationReport("nemhauser_inequality", True, None, samples)


ALL_CHECKS = {
    "normalized": check_normalized,
    "monotone": check_monotone,
    "submodular": check_submodular,
    "supermodularity_of_conditioning": check_supermodularity_of_conditioning,
    "pairwise_redundancy_bound": check_pairwise_redundancy_bound,
    "marginal_lower_bound": check_marginal_lower_bound,
    "nemhauser_inequality": check_nemhauser_inequality,
}
