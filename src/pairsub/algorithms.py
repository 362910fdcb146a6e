"""Greedy selection strategies and the brute-force reference optimum.

Every strategy emits a RunTrace recording, per iteration, the element chosen
and the estimate value that won the argmax.  Ties always break toward the
lowest element id, so runs are deterministic.  The pairwise strategies
(optimistic, pessimistic) issue only size-1 and size-2 queries, at most
m*(n+1) of them, via the incremental EstimateCache recursions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, inf

from .errors import InstanceTooLarge, InvalidArgument, ParseError
from .oracles import CountingOracle, EstimateCache, QueryCounts, argmax
from .validation import check_cardinality

BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class Selection:
    iteration: int
    element: int
    estimate: float


@dataclass
class RunTrace:
    """Ordered record of one greedy run.

    true_marginals stays None until an audit pass with a full-budget oracle
    fills it; the algorithm's own query counts are never polluted by audits.
    """

    algorithm: str
    n: int
    selections: list[Selection]
    final_set: list[int]
    query_counts: QueryCounts
    true_marginals: list[float] | None = None
    k: int | None = None

    @property
    def selected_order(self) -> list[int]:
        return [s.element for s in self.selections]

    def to_dict(self) -> dict:
        doc = {
            "algorithm": self.algorithm,
            "n": self.n,
            "selections": [
                {"i": s.iteration, "element": s.element, "estimate": s.estimate}
                for s in self.selections
            ],
            "true_marginals": self.true_marginals,
            "final_set": list(self.final_set),
            "query_counts": self.query_counts.to_dict(),
        }
        if self.k is not None:
            doc["k"] = self.k
        return doc

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def _typed(value, kinds, field: str):
    """value if it is one of kinds (never a bool), else ParseError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"trace field {field!r} has the wrong type: {value!r}")
    return value


def trace_from_dict(doc: dict) -> RunTrace:
    """The RunTrace of a to_dict() document; ParseError if a field is missing
    or has the wrong shape."""
    if not isinstance(doc, dict):
        raise ParseError(f"a trace must be a JSON object, got {type(doc).__name__}")
    try:
        return RunTrace(
            algorithm=doc["algorithm"],
            n=_typed(doc["n"], int, "n"),
            selections=[
                Selection(_typed(s["i"], int, "i"), s["element"],
                          _typed(s["estimate"], (int, float), "estimate"))
                for s in doc["selections"]
            ],
            final_set=list(doc["final_set"]),
            query_counts=QueryCounts(**doc.get("query_counts", {})),
            true_marginals=doc.get("true_marginals"),
            k=_typed(doc.get("k"), (int, type(None)), "k"),
        )
    except KeyError as exc:
        raise ParseError(f"trace is missing the field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"trace field has the wrong shape: {exc}") from None


def _finish(algorithm, n, selections, view, k=None) -> RunTrace:
    return RunTrace(
        algorithm=algorithm,
        n=n,
        selections=selections,
        final_set=sorted(s.element for s in selections),
        query_counts=view.counts,
        k=k,
    )


def greedy_full(oracle, n: int) -> RunTrace:
    """Classical greedy with full access: maximize the true marginal."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    current: set[int] = set()
    selections = []
    for i in range(1, n + 1):
        best_x, best_v = None, -inf
        for x in range(view.ground_size):
            if x in current:
                continue
            v = view.marginal(x, current)
            if v > best_v:
                best_v, best_x = v, x
        selections.append(Selection(i, best_x, best_v))
        current.add(best_x)
    return _finish("full", n, selections, view)


def greedy_uninformed(oracle, n: int) -> RunTrace:
    """Rank elements by singleton value alone; ties by lowest id."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    singles = {x: view.evaluate((x,)) for x in range(view.ground_size)}
    remaining = sorted(singles)
    selections = []
    for i in range(1, n + 1):
        x, value = argmax(remaining, singles)
        selections.append(Selection(i, x, value))
        remaining.remove(x)
    return _finish("uninformed", n, selections, view)


def _pairwise_greedy(algorithm, oracle, n: int, pick) -> RunTrace:
    """Take pick(cache) n times, folding each pick but the last into the cache."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    cache = EstimateCache(view)
    selections = []
    for i in range(1, n + 1):
        x, value = pick(cache)
        selections.append(Selection(i, x, value))
        if i < n:
            cache.condition_on(x, view)
    return _finish(algorithm, n, selections, view)


def greedy_optimistic(oracle, n: int) -> RunTrace:
    """Maximize the pairwise upper estimate, updated incrementally.

    Issues exactly m size-1 queries plus m-i size-2 queries after the i-th
    pick, one per remaining candidate: under m*(n+1) queries total.
    """
    return _pairwise_greedy("optimistic", oracle, n, EstimateCache.argmax_upper)


def greedy_pessimistic(oracle, n: int) -> RunTrace:
    """Maximize the pairwise lower estimate (highest guaranteed value).

    The raw, possibly negative estimate is compared; no clamping.  Sound
    under supermodularity of conditioning, which is the caller's
    responsibility to have checked.  Queries as for greedy_optimistic.
    """
    return _pairwise_greedy("pessimistic", oracle, n, EstimateCache.argmax_lower)


def greedy_k_wise_optimistic(oracle, n: int, k: int) -> RunTrace:
    """Maximize the k-wise upper estimate.

    Reduces to greedy_optimistic at k=2 and to greedy_full once k exceeds
    the solution size.  Each iteration folds in the marginals over the new
    subsets containing the fresh selection (naive subset enumeration), so
    per-candidate cost grows as C(|S|, k-1).
    """
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    current_min = {x: view.evaluate((x,)) for x in range(view.ground_size)}
    order = sorted(current_min)
    selected: list[int] = []
    selections = []
    for i in range(1, n + 1):
        best_x, best_v = argmax(order, current_min)
        selections.append(Selection(i, best_x, best_v))
        order.remove(best_x)
        if i == n:
            break
        prev = tuple(selected)
        selected.append(best_x)
        for size in range(0, min(k - 2, len(prev)) + 1):
            for extra in combinations(prev, size):
                subset = extra + (best_x,)
                f_subset = view.evaluate(subset)
                for x in order:
                    marg = view.evaluate(subset + (x,)) - f_subset
                    if marg < current_min[x]:
                        current_min[x] = marg
    return _finish("k_wise_optimistic", n, selections, view, k=k)


def brute_force_optimal(oracle, n: int, limit: int = BRUTE_FORCE_LIMIT):
    """Exact maximizer over all subsets of size at most n.

    Monotonicity means only size-n subsets need scanning.  Returns the
    lexicographically smallest maximizer and its value.
    """
    m = oracle.ground_size
    check_cardinality(n, m)
    if comb(m, n) > limit:
        raise InstanceTooLarge(
            f"C({m}, {n}) = {comb(m, n)} exceeds the enumeration limit {limit}"
        )
    if n == 0:
        return [], oracle.evaluate(())
    best_set, best_v = None, -inf
    for combo in combinations(range(m), n):
        v = oracle.evaluate(combo)
        if v > best_v:
            best_v, best_set = v, combo
    return list(best_set), best_v


def audit_trace(trace: RunTrace, full_oracle) -> RunTrace:
    """Fill true_marginals by replaying the selections against a full oracle."""
    prior: list[int] = []
    true_marginals = []
    for sel in trace.selections:
        true_marginals.append(full_oracle.marginal(sel.element, prior))
        prior.append(sel.element)
    return replace(trace, true_marginals=true_marginals)


def run_algorithm(name: str, oracle, n: int, k: int | None = None) -> RunTrace:
    """Dispatch by algorithm name; k is accepted only by the k-wise strategy."""
    if name not in ALGORITHMS:
        raise InvalidArgument(f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}")
    if name == "k_wise_optimistic":
        if k is None:
            raise InvalidArgument("k_wise_optimistic requires k")
        return greedy_k_wise_optimistic(oracle, n, k)
    if k is not None:
        raise InvalidArgument(f"k applies to k_wise_optimistic only, not {name!r}")
    return ALGORITHMS[name](oracle, n)


ALGORITHMS = {
    "full": greedy_full,
    "uninformed": greedy_uninformed,
    "optimistic": greedy_optimistic,
    "pessimistic": greedy_pessimistic,
    "k_wise_optimistic": greedy_k_wise_optimistic,
}

# Strategies that complete against a budget-2 oracle view.
PAIRWISE_ALGORITHMS = ("uninformed", "optimistic", "pessimistic")
