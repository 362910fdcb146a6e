"""Greedy selection strategies and the brute-force reference optimum.

Every strategy emits a RunTrace recording, per iteration, the element chosen
and the estimate value that won the argmax.  Ties among equal float values go
to the lowest element id, so runs are deterministic; two estimates whose real
values tie exactly can round apart, and then the larger float wins.  The
pairwise strategies (optimistic, pessimistic) issue only size-1 and size-2
queries, at most m*(n+1) of them, and fold each pick into the one estimate
they rank by.  The full greedy asks f(empty) once and f(S + y) for every
remaining y in each round: 1 + n*(m+1) - n*(n+1)/2 queries, of sets up to
size n.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import asdict, dataclass, replace
from itertools import combinations
from math import comb, inf

from .errors import InvalidArgument, NonFiniteValue, ParseError
from .oracles import CountingOracle, QueryCounts, argmax, fold_k_wise, fold_lower
from .validation import check_cardinality, check_enumeration, check_k, check_order


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


def _typed(value, kinds, field: str):
    """value if it is one of kinds (never a bool), else ParseError."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"trace field {field!r} has the wrong type: {value!r}")
    return value


def trace_from_dict(doc: dict) -> RunTrace:
    """The RunTrace of a to_dict() document; ParseError if a field is missing
    or has the wrong shape, the selections are not labelled i = 1..n,
    final_set is not the sorted selected order, or a query count is not an
    int >= 0."""
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
    chosen = sorted(trace.selected_order)
    if [_typed(x, int, "final_set") for x in trace.final_set] != chosen:
        raise ParseError(f"trace field 'final_set' is {trace.final_set}, "
                         f"not the sorted selected order {chosen}")
    for name, count in asdict(trace.query_counts).items():
        if _typed(count, int, name) < 0:
            raise ParseError(f"trace field {name!r} is {count}, below 0")
    return trace


def greedy_full(oracle, n: int) -> RunTrace:
    """Classical greedy with full access: maximize the true marginal.

    Round i scores each of the m-i+1 remaining y by f(S + y) - f(S), S the
    i-1 picks so far, asked as one _column over the remaining ids; f(S) is
    f(empty), asked once, then the pick's f(S + x) from the round before:
    1 + n*(m+1) - n*(n+1)/2 queries in all.
    """
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    picks: list[int] = []  # ascending
    remaining = list(range(view.ground_size))
    f_s = view.evaluate(())
    selections = []
    for i in range(1, n + 1):
        raw = view._column(tuple(picks), remaining)
        j, value = argmax(remaining, [f - f_s for f in raw])
        x = remaining.pop(j)
        selections.append(Selection(i, x, value))
        insort(picks, x)
        f_s = raw[j]
    return RunTrace("full", n, selections, picks, view.counts)


def greedy_uninformed(oracle, n: int) -> RunTrace:
    """Rank elements by singleton value alone; ties by lowest id.

    The k-wise loop at k = 1: only the m singletons are asked.
    """
    return _greedy("uninformed", oracle, n, 1)


def greedy_optimistic(oracle, n: int) -> RunTrace:
    """Maximize the pairwise upper estimate: the k-wise greedy at k = 2.

    Issues exactly m size-1 queries plus m-i size-2 queries after the i-th
    pick, one per remaining candidate: under m*(n+1) queries total.
    """
    return _greedy("optimistic", oracle, n, 2)


def greedy_pessimistic(oracle, n: int) -> RunTrace:
    """Maximize the pairwise lower estimate (highest guaranteed value).

    The raw, possibly negative estimate is compared; no clamping.  Sound
    under supermodularity of conditioning, which is the caller's
    responsibility to have checked.  Queries as for greedy_optimistic.
    """
    return _greedy("pessimistic", oracle, n, None)


def _greedy(algorithm, oracle, n: int, k: int | None) -> RunTrace:
    """Maximize the k-wise upper estimate, or with k None the pairwise lower
    one, folding each pick but the last into the one table it ranks by."""
    check_cardinality(n, oracle.ground_size)
    view = CountingOracle(oracle)
    ids = list(range(view.ground_size))
    singletons = list(view._column((), ids))  # f({x}) at x's position in ids
    table = list(singletons)
    selected: list[int] = []
    selections = []
    for i in range(1, n + 1):
        j, value = argmax(ids, table)
        x, f_x = ids[j], singletons[j]
        selections.append(Selection(i, x, value))
        del ids[j], table[j], singletons[j]
        if i < n:
            if k is None:
                table = fold_lower(table, singletons, f_x, view._column((x,), ids))
            else:
                table = fold_k_wise(view, ids, table, selected, x, f_x, k)
        selected.append(x)
    return RunTrace(algorithm, n, selections, sorted(selected), view.counts)


def greedy_k_wise_optimistic(oracle, n: int, k: int) -> RunTrace:
    """Maximize the k-wise upper estimate (the paper's Theorem 3 strategy).

    Asks the m singletons, then after each pick but the last, for every new
    A (the pick plus at most k-2 earlier picks), f(A) unless A is the pick
    alone, and f(A + x) for each remaining x: per-candidate cost per pick
    grows as C(|S|, k-2).  At k=2 it picks, estimates and asks as
    greedy_optimistic; once k exceeds n it matches greedy_full on submodular
    f only.
    """
    check_run("k_wise_optimistic", k)
    return replace(_greedy("k_wise_optimistic", oracle, n, k), k=k)


def brute_force_optimal(oracle, n: int):
    """Exact maximizer over all subsets of size at most n.

    Monotonicity means only size-n subsets need scanning.  Returns the
    lexicographically smallest maximizer and its value.  InstanceTooLarge,
    before any query, when C(m, n) exceeds the enumeration limit;
    NonFiniteValue when no subset's value compares above -inf, naming the
    last subset, or else when a value is NaN, naming the first such subset.
    """
    m = oracle.ground_size
    check_cardinality(n, m)
    check_enumeration(comb(m, n), f"brute force over C({m}, {n})", "subsets")
    best_set, best_v, nan_set = None, -inf, None
    for combo in combinations(range(m), n):  # at least one, as n <= m
        v = oracle.evaluate(combo)
        if v > best_v:
            best_v, best_set = v, combo
        elif v != v and nan_set is None:
            nan_set = combo
    if best_set is None:
        raise NonFiniteValue(f"no candidate has a value above -inf; "
                             f"candidate {list(combo)} has {v}")
    if nan_set is not None:
        raise NonFiniteValue(f"candidate {list(nan_set)} has nan, which cannot be ranked")
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


def check_run(name: str, k: int | None = None) -> None:
    """InvalidArgument unless name is a strategy and k, which
    k_wise_optimistic requires and no other strategy takes, is >= 2."""
    if name not in ALGORITHMS:
        raise InvalidArgument(f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHMS)}")
    if name != "k_wise_optimistic":
        if k is not None:
            raise InvalidArgument(f"k applies to k_wise_optimistic only, not {name!r}")
    elif k is None:
        raise InvalidArgument("k_wise_optimistic requires k")
    else:
        check_k(k)


def run_algorithm(name: str, oracle, n: int, k: int | None = None) -> RunTrace:
    """Dispatch by algorithm name, after check_run(name, k)."""
    check_run(name, k)
    if k is None:
        return ALGORITHMS[name](oracle, n)
    return greedy_k_wise_optimistic(oracle, n, k)


ALGORITHMS = {
    "full": greedy_full,
    "uninformed": greedy_uninformed,
    "optimistic": greedy_optimistic,
    "pessimistic": greedy_pessimistic,
    "k_wise_optimistic": greedy_k_wise_optimistic,
}

# Strategies that complete against a budget-2 oracle view.
PAIRWISE_ALGORITHMS = ("uninformed", "optimistic", "pessimistic")
