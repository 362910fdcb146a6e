"""The package-wide comparison tolerance at the edges of the float range."""

import math

import pytest

from pairsub.validation import ABS_TOL, REL_TOL, at_least, tolerance, values_close

INF, NAN = math.inf, math.nan
EDGES = (0.0, 1e-13, -2.5, 1e12, INF, -INF, NAN)


def variadic_tolerance(*values):
    """The rule tolerance(a, b) replaced: the same slack over any number of values."""
    return max(ABS_TOL, REL_TOL * max((abs(v) for v in values), default=0.0))


def test_two_value_tolerance_keeps_the_variadic_rule():
    for a in EDGES:
        for b in EDGES:
            assert tolerance(a, b) == variadic_tolerance(a, b), (a, b)


@pytest.mark.parametrize(("a", "b", "holds"), [
    (INF, INF, True),
    (INF, 1.0, True),
    (-INF, 1.0, False),
    (1.0, INF, False),
    (NAN, 1.0, False),
    (1.0, NAN, False),
    (NAN, NAN, False),
    (1.0 - 1e-10, 1.0, True),
    (1.0 - 1e-8, 1.0, False),
])
def test_at_least_at_the_edges(a, b, holds):
    assert at_least(a, b) is holds


@pytest.mark.parametrize(("a", "b", "holds"), [
    (INF, INF, True),
    (-INF, -INF, True),
    (INF, 1.0, False),
    (NAN, NAN, False),
    (1.0, NAN, False),
    (NAN, 1.0, False),
    (1.0, 1.0 + 1e-10, True),
    (0.0, 1e-13, True),
    (0.0, 1e-11, False),
])
def test_values_close_at_the_edges(a, b, holds):
    assert values_close(a, b) is holds
