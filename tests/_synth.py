"""Seeded random instance generators shared by the test modules."""

from __future__ import annotations

import random

from pairsub import (
    District,
    KernelConfig,
    ModularSpec,
    ProbabilisticCoverageSpec,
    SetFunctionOracle,
    WeightedCoverageSpec,
    build_coverage_instance,
    build_modular,
    build_oracle,
    build_probabilistic_coverage,
    build_weighted_coverage,
)


def random_weighted_coverage(rng: random.Random, m: int):
    universe = max(2 * m, 4)
    weights = {u: rng.uniform(0.0, 2.0) for u in range(universe)}
    covers = []
    for _ in range(m):
        covers.append({u for u in range(universe) if rng.random() < 0.35})
    return build_weighted_coverage(WeightedCoverageSpec(weights, covers))


def random_probabilistic_coverage(rng: random.Random, m: int, districts: int | None = None):
    districts = m if districts is None else districts
    demands = [rng.uniform(0.0, 3.0) for _ in range(districts)]
    probabilities = [
        [rng.random() if rng.random() < 0.6 else 0.0 for _ in range(districts)]
        for _ in range(m)
    ]
    return build_probabilistic_coverage(
        ProbabilisticCoverageSpec(demands, probabilities)
    )


def random_modular(rng: random.Random, m: int):
    return build_modular(ModularSpec([rng.uniform(0.0, 5.0) for _ in range(m)]))


SOC_FAMILIES = (random_weighted_coverage, random_probabilistic_coverage, random_modular)


def random_soc_oracle(rng: random.Random, m: int):
    """One of the three supermodularity-of-conditioning families."""
    return SOC_FAMILIES[rng.randrange(len(SOC_FAMILIES))](rng, m)


def no_column(oracle):
    """The same function and budget without the family's column: every set
    of evaluate_extensions goes through evaluate."""
    return SetFunctionOracle(oracle.ground_size, oracle._eval, budget=oracle.budget)


def synthetic_districts(rng: random.Random, count: int, demand_rng=None):
    demand_rng = rng if demand_rng is None else demand_rng
    return [
        District(
            f"d{i}",
            rng.uniform(0.0, 10.0),
            rng.uniform(0.0, 10.0),
            demand_rng.uniform(0.0, 100.0),
        )
        for i in range(count)
    ]


def city_oracle(seed: int = 42, count: int = 263, r_s: float = 1.0):
    """Synthetic analog of the 263-district ride-demand instance."""
    rng = random.Random(seed)
    spec = build_coverage_instance(synthetic_districts(rng, count), KernelConfig(r_s))
    return build_oracle(spec)


def demand_windows(seed: int = 7, count: int = 263, windows: int = 12, r_s: float = 1.0):
    """Fixed station layout, one demand field per time window."""
    layout_rng = random.Random(seed)
    coords = [(layout_rng.uniform(0.0, 10.0), layout_rng.uniform(0.0, 10.0))
              for _ in range(count)]
    oracles = []
    for w in range(windows):
        demand_rng = random.Random(seed * 1000 + w)
        districts = [
            District(f"d{i}", x, y, demand_rng.uniform(0.0, 100.0))
            for i, (x, y) in enumerate(coords)
        ]
        spec = build_coverage_instance(districts, KernelConfig(r_s))
        oracles.append(build_oracle(spec))
    return oracles
