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
from .oracles import CountingOracle, EstimateCache, QueryCounts, argmax, fold_k_wise
from .validation import check_cardinality, check_order, count_text

BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True, slots=True)
class Selection:
    iteration: int
    element: int
    estimate: float


@dataclass(slots=True)
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
    or has the wrong shape, or the selections are not labelled i = 1..n."""
    if not isinstance(doc, dict):
        raise ParseError(f"a trace must be a JSON object, got {type(doc).__name__}")
    try:
        trace = RunTrace(
            algorithm=doc["algorithm"],
            n=_typed(doc["n"], int, "n"),
            selections=[
                Selection(_typed(s["i"], int, "i"), _typed(s["element"], int, "element"),
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
    labels = [sel.iteration for sel in trace.selections]
    if labels != list(range(1, len(labels) + 1)) or trace.n != len(labels):
        raise ParseError(f"trace has n={trace.n} and selections labelled {labels}, not 1..n")
    return trace


def _finish(algorithm, n, selections, view) -> RunTrace:
    return RunTrace(
        algorithm=algorithm,
        n=n,
        selections=selections,
        final_set=sorted(s.element for s in selections),
        query_counts=view.counts,
    )


def greedy_full(oracle, n: int) -> RunTrace:
    """Classical greedy with full access: maximize the true marginal."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    current: set[int] = set()
    selections = []
    for i in range(1, n + 1):
        x, value = argmax({y: view.marginal(y, current)
                           for y in range(view.ground_size) if y not in current})
        selections.append(Selection(i, x, value))
        current.add(x)
    return _finish("full", n, selections, view)


def greedy_uninformed(oracle, n: int) -> RunTrace:
    """Rank elements by singleton value alone; ties by lowest id.

    The k-wise loop at k = 1: only the m singletons are asked.
    """
    return _k_wise_greedy("uninformed", oracle, n, 1)


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


def _k_wise_greedy(algorithm, oracle, n: int, k: int) -> RunTrace:
    """Maximize the k-wise upper estimate, folding each pick but the last in."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    singletons = {x: view.evaluate((x,)) for x in range(view.ground_size)}
    upper = dict(singletons)
    selected: list[int] = []
    selections = []
    for i in range(1, n + 1):
        x, value = argmax(upper)
        selections.append(Selection(i, x, value))
        del upper[x]
        if i < n:
            fold_k_wise(view, upper, selected, x, singletons[x], k)
            selected.append(x)
    return _finish(algorithm, n, selections, view)


def greedy_k_wise_optimistic(oracle, n: int, k: int) -> RunTrace:
    """Maximize the k-wise upper estimate (the paper's Theorem 3 strategy).

    Asks the m singletons, then after each pick but the last, for every new
    A (the pick plus at most k-2 earlier picks), f(A) unless A is the pick
    alone, and f(A + x) for each remaining x: per-candidate cost per pick
    grows as C(|S|, k-2).  At k=2 it picks, estimates and asks as
    greedy_optimistic; once k exceeds n it matches greedy_full on submodular
    f only.
    """
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    return replace(_k_wise_greedy("k_wise_optimistic", oracle, n, k), k=k)


def brute_force_optimal(oracle, n: int, limit: int = BRUTE_FORCE_LIMIT):
    """Exact maximizer over all subsets of size at most n.

    Monotonicity means only size-n subsets need scanning.  Returns the
    lexicographically smallest maximizer and its value.
    """
    m = oracle.ground_size
    check_cardinality(n, m)
    if comb(m, n) > limit:
        raise InstanceTooLarge(
            f"C({m}, {n}) = {count_text(comb(m, n))} exceeds the enumeration "
            f"limit {count_text(limit)}"
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
    """Fill true_marginals by replaying the selections against a full oracle.

    f is asked once on each prefix S_0, ..., S_n of the selection order, and
    the i-th true marginal is f(S_i) - f(S_{i-1}): n+1 queries.
    """
    order = trace.selected_order
    check_order(order, full_oracle.ground_size)
    values = [full_oracle.evaluate(order[:i]) for i in range(len(order) + 1)]
    return replace(trace, true_marginals=[b - a for a, b in zip(values, values[1:])])


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
