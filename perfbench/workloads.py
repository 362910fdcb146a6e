"""The benchmark's workloads: seeded input files, set-up, one job and its check.

Each workload writes its inputs from the seed alone, and the program sees
only those files: set-up reads them into ready oracles, a job is one user
task on those oracles, and `check` decides whether a job's output is right.
Jobs call pairsub through module attributes (`algorithms.greedy_optimistic`,
not a name bound at import), so the spans installed by spans.py see them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import random
from dataclasses import dataclass, fields
from pathlib import Path

from pairsub import algorithms, bounds, data, functions, verify

from _reference import naive_greedy_optimistic, naive_greedy_pessimistic
from _synth import SOC_FAMILIES, synthetic_districts

GAMMA_MAX = 1.0 - math.exp(-1.0)


@dataclass
class Outcome:
    """What one job's output check found."""

    problems: list[str]
    objective: list[float]  # f(final set), one per solution
    gamma: list[float]      # certified guarantee, one per certificate
    digest: tuple           # deterministic fields every job must repeat


class Memo:
    """The same oracle with each id-set asked once, for the slow references."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.ground_size = oracle.ground_size
        self.values: dict[frozenset, float] = {}

    def evaluate(self, ids) -> float:
        key = frozenset(ids)
        if key not in self.values:
            self.values[key] = self.oracle.evaluate(key)
        return self.values[key]


class Workload:
    """write_inputs(rng, directory) -> paths, setup(paths) -> state,
    job(state) -> output and check(state, output, expected) -> Outcome."""

    def expected(self, state):
        """Reference output for `check`, computed once per run after the timed loop."""
        return None

    def check_counts(self, state, queries_by_phase: dict) -> list[str]:
        """Problems with the answered queries of each phase of one job."""
        return []


@dataclass(frozen=True)
class Pairwise(Workload):
    """A greedy strategy on a budget-2 oracle, then Algorithm 1 on its order."""

    n: int

    strategy = ""        # attribute of pairsub.algorithms
    reference = None     # from-scratch strategy of tests/_reference.py

    def setup(self, paths):
        raise NotImplementedError

    def job(self, state):
        run = getattr(algorithms, self.strategy)(state.pairwise, self.n)
        return run, bounds.post_hoc_bound(run.selected_order, state.pairwise)

    def expected(self, state):
        """The reference's selection order and estimates."""
        return type(self).reference(Memo(state.pairwise), self.n)

    def check(self, state, output, expected) -> Outcome:
        run, cert = output
        m, n = state.pairwise.ground_size, self.n
        order, estimates = expected
        problems = []
        if run.selected_order != order:
            problems.append(f"selection {run.selected_order} differs from the reference {order}")
        if [s.estimate for s in run.selections] != estimates:
            problems.append("recorded estimates differ from the reference")
        q = run.query_counts
        if q.other or q.total > m * (n + 1):
            problems.append(f"queries {q.to_dict()} exceed size 2 or m*(n+1)={m * (n + 1)}")
        if len(cert.alphas) != n or not 0.0 <= cert.gamma <= GAMMA_MAX:
            problems.append(f"certificate gamma {cert.gamma} outside [0, 1-1/e]")
        digest = (tuple(run.selected_order), tuple(s.estimate for s in run.selections),
                  tuple(cert.alphas), cert.gamma)
        return Outcome(problems, [state.full.evaluate(run.final_set)], [cert.gamma], digest)

    def check_counts(self, state, queries_by_phase: dict) -> list[str]:
        limit = state.pairwise.ground_size * (self.n + 1)
        return [f"{phase} issued {count} queries, above m*(n+1)={limit}"
                for phase, count in queries_by_phase.items() if count > limit]


@dataclass
class PairwiseState:
    full: object       # unlimited oracle, for the objective only
    pairwise: object   # the same function behind a budget-2 view


@dataclass(frozen=True)
class CityOptimistic(Pairwise):
    """The paper's setting: ride-demand districts, probabilistic coverage."""

    n: int = 20
    districts: int = 263
    r_s: float = 1.0

    strategy = "greedy_optimistic"
    reference = naive_greedy_optimistic

    def write_inputs(self, rng: random.Random, directory: Path) -> list[Path]:
        path = directory / "city.csv"
        data.save_districts(path, synthetic_districts(rng, self.districts))
        return [path]

    def setup(self, paths):
        spec = data.build_coverage_instance(data.load_districts(paths[0]),
                                            data.KernelConfig(self.r_s))
        full = functions.build_oracle(spec)
        return PairwiseState(full, full.restricted(2))


@dataclass(frozen=True)
class SparsePessimistic(Pairwise):
    """Weighted coverage where each query is cheap, so bookkeeping shows."""

    n: int = 40
    m: int = 1000
    universe: int = 4000
    cover: int = 6

    strategy = "greedy_pessimistic"
    reference = naive_greedy_pessimistic

    def write_inputs(self, rng: random.Random, directory: Path) -> list[Path]:
        weights = [rng.uniform(0.1, 2.0) for _ in range(self.universe)]
        covers = [sorted(rng.sample(range(self.universe), self.cover)) for _ in range(self.m)]
        path = directory / "sparse.json"
        doc = {"type": "weighted_coverage",
               "params": {"universe_weights": weights, "covers": covers}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return [path]

    def setup(self, paths):
        full = functions.load_instance(paths[0])
        return PairwiseState(full, full.restricted(2))


@dataclass(frozen=True)
class TownAudit(Workload):
    """Full-information greedy, k-wise greedy with theorem 3, tau_2 with theorem 5."""

    n: int = 8
    k: int = 3
    districts: int = 120
    r_s: float = 1.0

    def write_inputs(self, rng: random.Random, directory: Path) -> list[Path]:
        path = directory / "town.csv"
        data.save_districts(path, synthetic_districts(rng, self.districts))
        return [path]

    def setup(self, paths):
        spec = data.build_coverage_instance(data.load_districts(paths[0]),
                                            data.KernelConfig(self.r_s))
        return functions.build_oracle(spec)

    def job(self, oracle):
        n, k = self.n, self.k
        full = algorithms.greedy_full(oracle, n)
        k_wise = algorithms.greedy_k_wise_optimistic(oracle, n, k)
        gamma_k = bounds.bound_from_alphas(bounds.alphas_k_wise(k_wise, oracle, k), n)
        tau2 = bounds.k_cardinality_curvature(oracle, 2)
        gamma_tau = bounds.bound_from_alphas(bounds.alphas_pessimistic(tau2, n), n)
        return full, k_wise, gamma_k, tau2, gamma_tau

    def check(self, oracle, output, expected) -> Outcome:
        full, k_wise, gamma_k, tau2, gamma_tau = output
        problems = []
        if not 0.0 <= tau2 <= 1.0:
            problems.append(f"tau_2 {tau2} outside [0, 1]")
        for gamma in (gamma_k, gamma_tau):
            if not 0.0 <= gamma <= GAMMA_MAX:
                problems.append(f"gamma {gamma} outside [0, 1-1/e]")
        for run in (full, k_wise):
            if len(run.final_set) != self.n:
                problems.append(f"{run.algorithm} picked {len(run.final_set)} of {self.n}")
        digest = tuple((tuple(r.selected_order), tuple(s.estimate for s in r.selections))
                       for r in (full, k_wise)) + (gamma_k, tau2, gamma_tau)
        objective = [oracle.evaluate(r.final_set) for r in (full, k_wise)]
        return Outcome(problems, objective, [gamma_k, gamma_tau], digest)


def _instance_doc(oracle) -> dict:
    """The {"type", "params"} document of a tests/_synth.py oracle."""
    params = {f.name: getattr(oracle.spec, f.name) for f in fields(oracle.spec)}
    if oracle.name == "weighted_coverage":
        # _synth keys the universe 0..U-1, which JSON keeps only as list positions
        params = {"universe_weights": list(params["universe_weights"].values()),
                  "covers": [sorted(c) for c in params["covers"]]}
    return {"type": oracle.name, "params": params}


@dataclass(frozen=True)
class Properties(Workload):
    """Every checker of verify.ALL_CHECKS, exhaustive then sampled, per SoC family."""

    m: int = 5
    samples: int = 500

    def write_inputs(self, rng: random.Random, directory: Path) -> list[Path]:
        paths = []
        for family in SOC_FAMILIES:
            oracle = family(rng, self.m)
            path = directory / f"{oracle.name}.json"
            path.write_text(json.dumps(_instance_doc(oracle)), encoding="utf-8")
            paths.append(path)
        return paths

    def setup(self, paths):
        return [functions.load_instance(path) for path in paths]

    def job(self, oracles):
        reports = []
        sampled = {"mode": "sampled", "samples": self.samples}
        for oracle in oracles:
            for check in verify.ALL_CHECKS.values():
                reports.append(check(oracle))
                has_modes = _takes_mode(inspect.unwrap(check))
                reports.append(check(oracle, **sampled) if has_modes else check(oracle))
        return reports

    def check(self, oracles, reports, expected) -> Outcome:
        problems = [f"{r.property} does not hold: {r.witness}" for r in reports if not r.holds]
        digest = tuple((r.property, r.holds, r.instances_checked) for r in reports)
        return Outcome(problems, [], [], digest)


@functools.cache
def _takes_mode(check) -> bool:
    """Whether a checker takes `mode` (check_normalized does not)."""
    return "mode" in inspect.signature(check).parameters


WORKLOADS = {
    "city_optimistic": CityOptimistic(),
    "sparse_pessimistic": SparsePessimistic(),
    "town_audit": TownAudit(),
    "properties": Properties(),
}
