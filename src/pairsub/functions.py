"""Built-in monotone normalized submodular families and the instance schema.

Four families cover the test and experiment surface:

* weighted coverage      f(S) = total weight of the universe covered by S
* probabilistic coverage f(S) = sum_e (1 - prod_{x in S}(1 - p_x^e)) v_e
* adversarial            f(S) = min{|S n V|, k} + |S n V*|
* modular                f(S) = sum of per-element weights

Both coverage families answer singletons and pairs, the only queries of the
pairwise strategies, in closed form from tables built at set-up, and hand
their oracle an extensions(a, ys) column function, so that
evaluate_extensions answers f(a + {y}) for every y in ys in one call,
whatever the size of a.  Probabilistic coverage answers every set one way:
_eval(s) is the column of one with y the lowest member of s, so a pair costs
one math.dist between two station rows, and a larger set multiplies miss
rows, built on first read, district by district in list comprehensions.
Weighted coverage builds an owner index at set-up, three flat int lists that
chain each universe element to the covers holding it, so a column of pairs
f({x, y}) first collects the covers that meet x's and answers every other y
by the sum of the two singletons; only covers that meet are intersected.  A
pair asked alone, through _eval, keeps one disjointness test of the two
covers, which costs less than a walk of the index.  Larger sets keep a
general pass over their members in id order, so every family returns the
same float for any order of the ids.

Instances serialize as {"type": <family>, "params": {...}} with params named
exactly after the spec dataclass fields.
"""

from __future__ import annotations

import json
from bisect import bisect
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import chain, count, repeat
from math import dist, hypot, inf, sqrt
from operator import mul
from pathlib import Path

from .errors import MalformedSpec, PairsubError
from .oracles import SetFunctionOracle


class _Boxed(dict):
    """The miss row tuple([1.0 - p for p in probabilities[x]]) of each
    station x, made the first time a larger set reads x."""

    def __init__(self, probabilities):
        self.probabilities = probabilities

    def __missing__(self, x):
        row = self[x] = tuple([1.0 - p for p in self.probabilities[x]])
        return row


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


def _columns(obj, what: str):
    """(keys, values) of a mapping (insertion order) or sequence."""
    if isinstance(obj, Mapping):
        return obj.keys(), obj.values()
    if isinstance(obj, Sequence) and not isinstance(obj, (str, bytes)):
        return range(len(obj)), obj
    raise MalformedSpec(f"{what} must be a mapping or a sequence")


def _amounts(keys, values, what: str, of: str) -> list:
    """The float amount of each key: one map and a check when every amount is
    valid and their total is finite, else a loop that raises the first bad
    one in order.  The caller checks the total, which bounds every value."""
    try:
        amounts = list(map(float, values))
        if 0.0 <= min(amounts, default=0.0) and sum(amounts) < inf:  # NaN fails one
            return amounts
    except (TypeError, ValueError, OverflowError):  # the loop below raises the first error
        pass
    for key, v in zip(keys, map(float, values)):
        if not 0.0 <= v < inf:  # NaN fails every comparison
            raise MalformedSpec(f"{what} {v} for {of} {key!r} is negative or not finite")
    return amounts  # every amount is valid, so the map above passed


def _parse_covers(universe_keys, cover_keys, covers) -> list:
    """Each cover as the frozenset of its elements' universe positions.

    Lists or tuples of ints within a sequence universe, as a JSON document
    gives them, are their own positions: a few C-level passes check them,
    and frozenset(cover) inserts them one by one in list order, as
    frozenset(map(...)) does, so the sets iterate alike (a set cover would
    be copied table and all, and may iterate in another order).  Other
    covers take the loop that maps each cover through the key index and
    names the first cover with an unknown element.
    """
    size = len(universe_keys)
    if isinstance(universe_keys, range) and {*map(type, covers)} <= {list, tuple}:
        ids = list(chain.from_iterable(covers))
        if {*map(type, ids)} <= {int} and 0 <= min(ids, default=0) and max(ids, default=-1) < size:
            return list(map(frozenset, covers))
    find = dict(zip(universe_keys, range(size))).__getitem__
    cover_sets = []
    for key, cover in zip(cover_keys, covers):
        try:
            cover_sets.append(frozenset(map(find, cover)))
        except KeyError as exc:
            raise MalformedSpec(
                f"cover {key!r} references unknown universe element {exc.args[0]!r}"
            ) from None
    return cover_sets


def _owner_index(cover_sets: list, size: int):
    """met(x): the covers that share an element with cover x, x among them
    unless its cover is empty.

    Three flat int lists link each universe element to the covers holding
    it, with no container per element: head[e] is e's last membership or
    -1, and membership i, in cover order, belongs to cover owner[i] and
    follows after[i], the element's previous membership or -1.  met(x) takes
    one step per cover sharing an element of x's cover, so it costs no more
    than intersecting x's cover with each cover it meets.
    """
    head = [-1] * size
    owner = []
    after = []
    for c, members in enumerate(cover_sets):
        for e in members:
            after.append(head[e])
            head[e] = len(owner)
            owner.append(c)

    def met(x: int) -> set:
        found = set()
        for e in cover_sets[x]:
            i = head[e]
            while i >= 0:
                found.add(owner[i])
                i = after[i]
        return found

    return met


def build_weighted_coverage(spec: WeightedCoverageSpec) -> SetFunctionOracle:
    """Oracle for union-of-weights coverage; exhibits supermodularity of
    conditioning.

    Set-up parses with a few C-level passes (_amounts, _parse_covers)
    and builds the owner index (_owner_index) eagerly, one Python step per
    cover membership.  The parse saves about what the index costs: a JSON
    document of 1,000 covers of 6 elements from 4,000 sets up within a few
    percent of the time an item-by-item parse took (BENCH_owner_index.json).
    A column pairs(x, ys) answers single[x] + single[y], the disjoint case's
    float, for every y outside met(x), and intersects only the covers in
    met(x), so a sparse instance pays a set test only where two covers
    overlap.  _eval's pair is asked alone, so it keeps the direct isdisjoint
    test, which costs less than walking x's chains for one answer.
    """
    universe_keys, values = _columns(spec.universe_weights, "universe_weights")
    weights = _amounts(universe_keys, values, "weight", "universe element")
    if not sum(weights) < inf:
        raise MalformedSpec(f"universe weights sum to {sum(weights)}, which is not finite")
    weight = weights.__getitem__
    cover_sets = _parse_covers(universe_keys, *_columns(spec.covers, "covers"))
    if not cover_sets:
        raise MalformedSpec("covers must declare at least one element")
    # 0.0, not 0, for an empty cover
    single = list(map(float, map(sum, map(map, repeat(weight), cover_sets))))
    met = _owner_index(cover_sets, len(weights))

    def shared(x: int, y: int) -> float:
        # f({x, y}) of two covers that meet: + is commutative and the shared
        # ids are summed sorted, so it does not depend on which of the two is x
        return single[x] + single[y] - sum(map(weight, sorted(cover_sets[x] & cover_sets[y])))

    def pairs(x: int, ys: list) -> list:
        met_x, single_x = met(x), single[x]
        return [single_x + single[y] if y not in met_x else shared(x, y) for y in ys]

    def _eval(s: frozenset) -> float:
        size = len(s)
        if size == 2:
            x, y = s
            if cover_sets[x].isdisjoint(cover_sets[y]):
                return single[x] + single[y]
            return shared(x, y)
        if size == 1:
            (x,) = s
            return single[x]
        covered = set()
        for x in sorted(s):  # the union's iteration order follows insertion order
            covered |= cover_sets[x]
        return sum(map(weight, covered))

    def extensions(a: tuple, ys: list) -> list:
        if len(a) < 2:
            return pairs(a[0], ys) if a else [single[y] for y in ys]
        return [float(_eval(frozenset((y, *a)))) for y in ys]

    return SetFunctionOracle(len(cover_sets), _eval, name="weighted_coverage", spec=spec,
                             extensions_fn=extensions)


def _read_in_order(values, root_v):
    """(ps, scale) of a station row that names every district in order: one
    float map, then scale from one comprehension that keeps only entries in
    [0, 1].  None when a value is not such a float (NaN fails the test too),
    so the caller's per-entry read raises the first bad one."""
    try:
        ps = list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        return None
    scale = tuple([r * p for r, p in zip(root_v, ps) if 0.0 <= p <= 1.0])
    return (ps, scale) if len(scale) == len(ps) else None


def _read_by_key(station, items, district_index, root_v):
    """(ps, scale) of any station row, entry by entry: a district the
    row does not name has p = 0, and the first unknown district or value
    outside [0, 1] raises."""
    ps = [0.0] * len(root_v)
    for key, p in items:
        e = district_index.get(key)
        if e is None:
            raise MalformedSpec(f"station {station!r} references unknown district {key!r}")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise MalformedSpec(
                f"probability {p} for station {station!r}, district {key!r} outside [0, 1]"
            )
        ps[e] = p
    return ps, tuple(map(mul, root_v, ps))


def build_probabilistic_coverage(spec: ProbabilisticCoverageSpec) -> SetFunctionOracle:
    """Oracle for probabilistic coverage over weighted demand districts.

    Singletons and pairs take a closed form over the rows
    s_x = (sqrt(v_e) * p_x^e)_e and two per-station values built at set-up,
    f(x) = <sqrt(v), s_x> and h[x] = f(x) - |s_x|^2 / 2 (|s_x| by math.hypot).
    As 2 <s_x, s_y> = |s_x|^2 + |s_y|^2 - |s_x - s_y|^2,
    f({x,y}) = f(x) + f(y) - <s_x, s_y> = h[x] + h[y] + d^2 / 2 with
    d = math.dist(s_x, s_y): one C loop per pair, symmetric bit for bit since
    dist works on |a - b|, and nothing cancels, since p <= 1 gives
    h[x] >= f(x) / 2 >= 0.  A station whose f(x) or |s_x|^2 overflows is
    rejected.

    A station row that names every district in order, as the list rows of
    data.build_coverage_instance do, is read in bulk (_read_in_order); any
    other row, and any row with a bad value, is read entry by entry
    (_read_by_key), so every error keeps its type and message.

    A larger set multiplies the miss rows 1 - p_x^e of its members in id
    order by list comprehensions over zip of the rows, three rows each; the
    last takes the one to three left and also 1 - q and * v, so sum reads
    (1 - q_e) * v_e and no step is a call through operator.  No lazy chain
    is built, so no set is too deep for the C stack.  Set-up keeps only p_x
    per station; its miss row is built as a tuple of floats the first time a
    larger set reads it (_Boxed), so a query boxes no float per member and a
    budget-2 view builds none.  The restricted() views share the tuples, and
    a fill that races another stores an equal one.  Each district gets the
    operations of a plain loop over lists in the same order, the product
    ((q_1 q_2) q_3)... in id order, then 1 - q_e, then * v_e, summed over
    the districts in order, so the value is that loop's bit for bit.

    A column f(a + {y}), |a| >= 2, keeps the prefix products of a's rows in
    id order, each built once, as far as the column needs them.  With p the
    number of members of a below y, the product for y starts from the prefix
    of max(p, 1) members, then multiplies in y's row and the members above
    it: p = 0 and p = 1 are the same operation, since one multiply commutes
    exactly.  _eval(s) is the column of one with y the lowest member of s:
    a pair is the pairs answer above, and a larger set starts from a boxed
    row and builds no prefix.
    """
    demand_keys, demand_values = _columns(spec.demands, "demands")
    demands = _amounts(demand_keys, demand_values, "demand", "district")
    if not demands:
        raise MalformedSpec("demands must declare at least one district")

    in_order = demand_keys if isinstance(demand_keys, range) else list(demand_keys)
    district_index = dict(zip(in_order, range(len(demands))))
    root_v = tuple(map(sqrt, demands))
    probabilities = []  # p_x^e per district, 0.0 where a row names none
    scaled = []         # s_x: sqrt(v) * p per district
    single = []         # f(x)
    half = []           # h[x] = f(x) - |s_x|^2 / 2
    for station, probs in zip(*_columns(spec.probabilities, "probabilities")):
        keys, values = _columns(probs, f"probabilities[{station!r}]")
        read = None
        if (keys if isinstance(keys, range) else list(keys)) == in_order:
            read = _read_in_order(values, root_v)
        ps, scale = read or _read_by_key(station, zip(keys, values), district_index, root_v)
        f_x = sum(map(mul, root_v, scale))
        norm = hypot(*scale)
        norm2 = norm * norm
        if not (f_x < inf and norm2 < inf):
            raise MalformedSpec(
                f"station {station!r} overflows: f = {f_x}, |sqrt(v) * p|^2 = {norm2}"
            )
        probabilities.append(ps)
        scaled.append(scale)
        single.append(f_x)
        half.append(f_x - norm2 / 2)
    if not probabilities:
        raise MalformedSpec("probabilities must declare at least one station")
    if not sum(demands) < inf:  # the total bounds every value
        raise MalformedSpec(f"demands sum to {sum(demands)}, which is not finite")

    v = tuple(demands)
    boxed = _Boxed(probabilities)

    def pairs(x: int, ys: list) -> list:
        half_x, scaled_x = half[x], scaled[x]
        return [half_x + half[y] + d * d / 2  # d ** 2 raises OverflowError
                for y in ys for d in (dist(scaled_x, scaled[y]),)]

    def extensions(a: tuple, ys: list) -> list:
        if len(a) < 2:
            return pairs(a[0], ys) if a else [single[y] for y in ys]
        members = list(map(boxed.__getitem__, a))
        prefix = [None, members[0]]  # prefix[i]: the product of a[:i]'s rows
        values = []
        for y in ys:
            start = bisect(a, y) or 1
            while len(prefix) <= start:
                prefix.append(list(map(mul, prefix[-1], members[len(prefix) - 1])))
            miss, rows = prefix[start], [boxed[y], *members[start:]]
            last = (len(rows) - 1) // 3 * 3  # rows[last:] are the one to three left
            for i in range(0, last, 3):
                miss = [q * r * s * t for q, r, s, t in zip(miss, *rows[i:i + 3])]
            left, tail = len(rows) - last, zip(miss, *rows[last:], v)
            values.append(sum([(1.0 - q * r) * w for q, r, w in tail] if left == 1 else
                              [(1.0 - q * r * s) * w for q, r, s, w in tail] if left == 2 else
                              [(1.0 - q * r * s * t) * w for q, r, s, t, w in tail]))
        return values

    def _eval(s: frozenset) -> float:
        if not s:
            return 0.0
        lowest, *rest = sorted(s)
        return extensions(tuple(rest), (lowest,))[0]

    return SetFunctionOracle(len(probabilities), _eval, name="probabilistic_coverage", spec=spec,
                             extensions_fn=extensions)


def build_adversarial(spec: AdversarialSpec) -> SetFunctionOracle:
    """Oracle for the truncation construction that defeats budget-k algorithms.

    Every set of size at most k evaluates to its cardinality, so a budget-k
    view cannot distinguish V elements from V* elements.
    """
    try:
        v_ids, star_ids, k = [int(x) for x in spec.V], [int(x) for x in spec.V_star], int(spec.k)
    except (ValueError, OverflowError) as exc:  # NaN and +-inf among them
        raise MalformedSpec(f"V, V_star and k must be finite integers: {exc}") from None
    for given, value in zip((*spec.V, *spec.V_star, spec.k), (*v_ids, *star_ids, k)):
        if given != value:  # 0.5 or "3", which int() takes
            raise MalformedSpec(f"V, V_star and k must be integers, got {given!r}")
    v_set, star_set = frozenset(v_ids), frozenset(star_ids)
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
    weights = _amounts(count(), spec.weights, "weight", "element")
    if not weights:
        raise MalformedSpec("weights must declare at least one element")
    if not sum(weights) < inf:  # the total bounds every value
        raise MalformedSpec(f"weights sum to {sum(weights)}, which is not finite")

    def _eval(s: frozenset) -> float:
        return sum(map(weights.__getitem__, sorted(s)))

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
    """The oracle of an instance document.  A value its family cannot take,
    such as a string weight or a cover that is not a list, is a MalformedSpec
    naming the family and the value."""
    try:
        return build_oracle(spec_from_dict(doc))
    except PairsubError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedSpec(f"{doc['type']!r} instance has a bad value: {exc}") from None


def load_instance(path) -> SetFunctionOracle:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"{path}: invalid JSON ({exc})") from exc
    return instance_from_dict(doc)
