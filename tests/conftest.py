"""Fixtures shared by the test modules."""

import pytest

from pairsub import ModularSpec, WeightedCoverageSpec, build_modular, build_weighted_coverage


@pytest.fixture
def chain_coverage():
    # x1={1,2}, x2={2,3}, x3={3,4}, unit weights
    return build_weighted_coverage(
        WeightedCoverageSpec({1: 1, 2: 1, 3: 1, 4: 1}, [{1, 2}, {2, 3}, {3, 4}])
    )


@pytest.fixture
def modular312():
    return build_modular(ModularSpec([3, 1, 2]))
