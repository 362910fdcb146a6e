"""Input validation helpers and the package-wide numeric tolerances."""

from __future__ import annotations

from math import isfinite
from typing import Iterable

from .errors import (
    CardinalityTooLarge,
    DuplicateElement,
    InstanceTooLarge,
    InvalidArgument,
    UnknownElement,
)

# Relative tolerance for comparing function values; absolute floor near zero.
# Marginals of large coverage sums accumulate float error around 1e-12.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Most sets or tuples any exhaustive scan walks: the brute-force optimum, the
# tau_k scan, a table of subset values and a property check's enumeration.
ENUMERATION_LIMIT = 10**6


def tolerance(a: float, b: float) -> float:
    """Mixed comparison slack for two magnitudes."""
    return max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def values_close(a: float, b: float) -> bool:
    """a == b, or both are finite and within tolerance of each other."""
    return a == b or (isfinite(a) and isfinite(b) and abs(a - b) <= tolerance(a, b))


def at_least(a: float, b: float) -> bool:
    """a >= b, or both are finite and a falls short by at most the tolerance."""
    return a >= b or (isfinite(a) and isfinite(b) and a >= b - tolerance(a, b))


def near_zero(v: float) -> bool:
    return abs(v) <= ABS_TOL


def count_text(count: int) -> str:
    """count in decimal, or a power-of-two floor when it has too many digits
    for the interpreter to print."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


def check_enumeration(count: int, what: str, unit: str) -> None:
    """InstanceTooLarge when a scan of count units exceeds ENUMERATION_LIMIT;
    callers check before their first query."""
    if count > ENUMERATION_LIMIT:
        raise InstanceTooLarge(f"{what} needs {count_text(count)} {unit}, "
                               f"limit is {count_text(ENUMERATION_LIMIT)}")


def as_id_set(ids: Iterable[int]) -> frozenset:
    return ids if isinstance(ids, frozenset) else frozenset(ids)


def check_element_ids(ids: Iterable[int], ground_size: int) -> None:
    for x in ids:
        if not isinstance(x, int) or isinstance(x, bool):
            raise UnknownElement(f"element ids must be integers, got {x!r}")
        if not 0 <= x < ground_size:
            raise UnknownElement(
                f"element id {x} outside ground set [0, {ground_size})"
            )


def check_order(order: list[int], ground_size: int) -> None:
    """An ordered solution: in-range int ids, none repeated."""
    check_element_ids(order, ground_size)
    if len(set(order)) != len(order):
        raise DuplicateElement(f"solution repeats an element: {order}")


def check_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")


def check_cardinality(n: int, ground_size: int) -> None:
    check_int(n, "cardinality")
    if n < 1:
        raise InvalidArgument(f"cardinality must be >= 1, got {n}")
    if n > ground_size:
        raise CardinalityTooLarge(
            f"cardinality {n} exceeds ground set size {ground_size}"
        )


def check_k(k: int) -> None:
    """InvalidArgument unless k, the order of a k-wise estimate, is an int >= 2."""
    check_int(k, "k")
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
