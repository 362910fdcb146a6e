"""Built-in monotone normalized submodular families and the instance schema.

Four families cover the test and experiment surface:

* weighted coverage      f(S) = total weight of the universe covered by S
* probabilistic coverage f(S) = sum_e (1 - prod_{x in S}(1 - p_x^e)) v_e
* adversarial            f(S) = min{|S n V|, k} + |S n V*|
* modular                f(S) = sum of per-element weights

Instances serialize as {"type": <family>, "params": {...}} with params named
exactly after the spec dataclass fields.
"""

from __future__ import annotations

import json
from math import inf
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from .errors import MalformedSpec
from .oracles import SetFunctionOracle


@dataclass(frozen=True)
class WeightedCoverageSpec:
    universe_weights: Mapping
    covers: Mapping | Sequence


@dataclass(frozen=True)
class ProbabilisticCoverageSpec:
    demands: Mapping | Sequence
    probabilities: Mapping | Sequence


@dataclass(frozen=True)
class AdversarialSpec:
    V: Sequence[int]
    V_star: Sequence[int]
    k: int


@dataclass(frozen=True)
class ModularSpec:
    weights: Sequence[float]


def _keyed_items(obj, what: str):
    """(key, value) pairs from a mapping (insertion order) or sequence."""
    if isinstance(obj, Mapping):
        return list(obj.items())
    if isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        return list(enumerate(obj))
    raise MalformedSpec(f"{what} must be a mapping or a sequence")


def build_weighted_coverage(spec: WeightedCoverageSpec) -> SetFunctionOracle:
    """Oracle for union-of-weights coverage; exhibits supermodularity of
    conditioning."""
    universe = _keyed_items(spec.universe_weights, "universe_weights")
    weights = []
    index = {}
    for key, w in universe:
        w = float(w)
        if not 0.0 <= w < inf:  # NaN fails every comparison
            raise MalformedSpec(
                f"weight {w} for universe element {key!r} is negative or not finite"
            )
        index[key] = len(weights)
        weights.append(w)
    cover_sets = []
    for key, cover in _keyed_items(spec.covers, "covers"):
        members = set()
        for u in cover:
            if u not in index:
                raise MalformedSpec(
                    f"cover {key!r} references unknown universe element {u!r}"
                )
            members.add(index[u])
        cover_sets.append(frozenset(members))
    if not cover_sets:
        raise MalformedSpec("covers must declare at least one element")

    def _eval(s: frozenset) -> float:
        covered = set()
        for x in s:
            covered |= cover_sets[x]
        return sum(weights[i] for i in covered)

    return SetFunctionOracle(len(cover_sets), _eval, name="weighted_coverage", spec=spec)


def build_probabilistic_coverage(spec: ProbabilisticCoverageSpec) -> SetFunctionOracle:
    """Oracle for probabilistic coverage over weighted demand districts.

    Evaluation cost is linear in |S| times the number of districts, which is
    the cost model the timing experiments rely on; keep this a plain loop.
    """
    demand_items = _keyed_items(spec.demands, "demands")
    district_index = {}
    demands = []
    for key, v in demand_items:
        v = float(v)
        if not 0.0 <= v < inf:
            raise MalformedSpec(f"demand {v} for district {key!r} is negative or not finite")
        district_index[key] = len(demands)
        demands.append(v)
    if not demands:
        raise MalformedSpec("demands must declare at least one district")

    rows = []
    for station, probs in _keyed_items(spec.probabilities, "probabilities"):
        row = [1.0] * len(demands)  # stores 1 - p per district
        for key, p in _keyed_items(probs, f"probabilities[{station!r}]"):
            if key not in district_index:
                raise MalformedSpec(
                    f"station {station!r} references unknown district {key!r}"
                )
            p = float(p)
            if not 0.0 <= p <= 1.0:
                raise MalformedSpec(
                    f"probability {p} for station {station!r}, district {key!r} "
                    "outside [0, 1]"
                )
            row[district_index[key]] = 1.0 - p
        rows.append(tuple(row))
    if not rows:
        raise MalformedSpec("probabilities must declare at least one station")

    v = tuple(demands)

    def _eval(s: frozenset) -> float:
        if not s:
            return 0.0
        ordered = sorted(s)
        miss = rows[ordered[0]]
        for x in ordered[1:]:
            row = rows[x]
            miss = [a * b for a, b in zip(miss, row)]
        return sum((1.0 - q) * ve for q, ve in zip(miss, v))

    return SetFunctionOracle(len(rows), _eval, name="probabilistic_coverage", spec=spec)


def build_adversarial(spec: AdversarialSpec) -> SetFunctionOracle:
    """Oracle for the truncation construction that defeats budget-k algorithms.

    Every set of size at most k evaluates to its cardinality, so a budget-k
    view cannot distinguish V elements from V* elements.
    """
    try:
        v_set = frozenset(int(x) for x in spec.V)
        star_set = frozenset(int(x) for x in spec.V_star)
        k = int(spec.k)
    except (ValueError, OverflowError) as exc:  # NaN and +-inf among them
        raise MalformedSpec(f"V, V_star and k must be finite integers: {exc}") from None
    if v_set & star_set:
        raise MalformedSpec(f"V and V_star overlap: {sorted(v_set & star_set)}")
    if k < 1:
        raise MalformedSpec(f"k must be >= 1, got {spec.k}")
    m = len(v_set) + len(star_set)
    if v_set | star_set != frozenset(range(m)):
        raise MalformedSpec("V and V_star must partition the dense ids 0..m-1")

    def _eval(s: frozenset) -> float:
        return float(min(len(s & v_set), k) + len(s & star_set))

    return SetFunctionOracle(m, _eval, name="adversarial", spec=spec)


def build_modular(spec: ModularSpec) -> SetFunctionOracle:
    """Oracle for an additive function; curvature zero, all estimates exact."""
    weights = [float(w) for w in spec.weights]
    if not weights:
        raise MalformedSpec("weights must declare at least one element")
    for i, w in enumerate(weights):
        if not 0.0 <= w < inf:
            raise MalformedSpec(f"weight {w} for element {i} is negative or not finite")

    def _eval(s: frozenset) -> float:
        return sum(weights[x] for x in s)

    return SetFunctionOracle(len(weights), _eval, name="modular", spec=spec)


SPEC_TYPES = {
    "weighted_coverage": (WeightedCoverageSpec, build_weighted_coverage),
    "probabilistic_coverage": (ProbabilisticCoverageSpec, build_probabilistic_coverage),
    "adversarial": (AdversarialSpec, build_adversarial),
    "modular": (ModularSpec, build_modular),
}

_BUILDERS = {cls: builder for cls, builder in SPEC_TYPES.values()}


def spec_from_dict(doc: Mapping):
    """Parse {"type", "params"} into the matching spec dataclass."""
    if not isinstance(doc, Mapping):
        raise MalformedSpec("instance document must be a JSON object")
    try:
        kind = doc["type"]
        params = doc["params"]
    except KeyError as exc:
        raise MalformedSpec(f"instance document missing key {exc}") from None
    if kind not in SPEC_TYPES:
        raise MalformedSpec(
            f"unknown instance type {kind!r}; expected one of {sorted(SPEC_TYPES)}"
        )
    cls, _ = SPEC_TYPES[kind]
    expected = {f.name for f in fields(cls)}
    given = set(params)
    if given != expected:
        raise MalformedSpec(
            f"params for {kind!r} must be exactly {sorted(expected)}, got {sorted(given)}"
        )
    return cls(**params)


def build_oracle(spec) -> SetFunctionOracle:
    builder = _BUILDERS.get(type(spec))
    if builder is None:
        raise MalformedSpec(f"no builder for spec type {type(spec).__name__}")
    return builder(spec)


def instance_from_dict(doc: Mapping) -> SetFunctionOracle:
    return build_oracle(spec_from_dict(doc))


def load_instance(path) -> SetFunctionOracle:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(doc)


def as_oracle(obj) -> SetFunctionOracle:
    """Coerce an oracle, spec dataclass, instance dict, or path to an oracle."""
    if hasattr(obj, "evaluate") and hasattr(obj, "ground_size"):
        return obj
    if type(obj) in _BUILDERS:
        return build_oracle(obj)
    if isinstance(obj, Mapping):
        return instance_from_dict(obj)
    if isinstance(obj, (str, Path)):
        return load_instance(obj)
    raise MalformedSpec(f"cannot interpret {type(obj).__name__} as an instance")
