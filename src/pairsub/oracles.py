"""Set-function oracles, information budgets, and pairwise marginal estimates.

An oracle answers f(S) only for sets within its declared budget; a budget of
2 is the pairwise-information regime.  Two estimates of the marginal
return f(x|S) are kept on top of small queries:

* upper -- min f(x|A) over the subsets A of S with |A| < k, an optimistic
  bound (valid under submodularity); k_wise_upper_estimate computes it from
  scratch, and at k = 2 it is the minimum of f(x) and the pairwise marginals,
* lower -- singleton value minus the summed pairwise redundancies, a
  pessimistic bound (valid under supermodularity of conditioning; may be
  negative).

A greedy run keeps one table of these values, keyed by the candidates that
remain: a pick deletes its key, so the keys stay in ascending id order, and
argmax(table) is the one pick rule, ties going to the lowest id.

EstimateCache keeps the upper and lower tables for the pairwise strategies
and updates them in constant time per candidate when the partial solution
grows, which is what makes them linear in the number of selections.  Each
growth step asks for one column of pairs {x, x_i} over the remaining
candidates through evaluate_pairs, which still answers every pair through
SetFunctionOracle.evaluate, with its id and budget checks, and counts the
column once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Callable, Iterable

from .errors import BudgetExceeded, DuplicateElement, InvalidArgument, NonFiniteValue
from .validation import as_id_set, check_element_ids

ElementId = int


class SetFunctionOracle:
    """Black-box access to f: 2^X -> R with an optional query-size budget.

    Queries above the budget raise BudgetExceeded rather than being answered.
    Instances are immutable after construction and safe for concurrent
    read-only evaluation.
    """

    __slots__ = ("ground_size", "budget", "name", "spec", "_eval")

    def __init__(
        self,
        ground_size: int,
        eval_fn: Callable[[frozenset], float],
        budget: int | None = None,
        name: str = "oracle",
        spec=None,
    ):
        if ground_size < 1:
            raise InvalidArgument("ground_size must be a positive integer")
        if budget is not None and budget < 1:
            raise InvalidArgument("budget must be >= 1, or None for unlimited")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_eval", eval_fn)

    def __setattr__(self, key, value):
        raise AttributeError("oracles are immutable")

    def evaluate(self, ids: Iterable[int]) -> float:
        """f(S).  Rejects out-of-range ids and over-budget queries."""
        s = ids if isinstance(ids, frozenset) else frozenset(ids)
        ground = self.ground_size
        for x in s:  # plain in-range ints pass; anything else gets the full check
            if type(x) is not int or not 0 <= x < ground:
                check_element_ids(s, ground)
                break
        if self.budget is not None and len(s) > self.budget:
            raise BudgetExceeded(
                f"query of size {len(s)} exceeds information budget {self.budget}"
            )
        return float(self._eval(s))

    def evaluate_pairs(self, x: int, ys: list[int]) -> list[float]:
        """[f({y, x}) for y in ys], every pair answered by evaluate.

        ys must not contain x, so that every query is a pair.
        """
        if x in ys:
            raise DuplicateElement(f"element {x} cannot be paired with itself")
        evaluate = self.evaluate
        return [evaluate(frozenset((y, x))) for y in ys]

    def marginal(self, x: int, ids: Iterable[int]) -> float:
        """f(x|S) = f(S u {x}) - f(S)."""
        s = as_id_set(ids)
        if x in s:
            raise DuplicateElement(f"element {x} already in the conditioning set")
        return self.evaluate(s | {x}) - self.evaluate(s)

    def restricted(self, budget: int) -> "SetFunctionOracle":
        """A view of the same function with a (tighter) budget."""
        if budget < 1:
            raise InvalidArgument("budget must be >= 1")
        effective = budget if self.budget is None else min(budget, self.budget)
        return SetFunctionOracle(
            self.ground_size, self._eval, budget=effective, name=self.name, spec=self.spec
        )


@dataclass(slots=True)
class QueryCounts:
    """Oracle queries issued by one run, bucketed by set size.

    work_units accumulates max(1, |S|) per query: a machine-independent
    proxy for evaluation cost when f costs time linear in |S|.  The coverage
    families answer singletons and pairs in closed form, so for them the
    two units of a pair overstate its time.
    """

    size1: int = 0
    size2: int = 0
    other: int = 0
    work_units: int = 0

    def record(self, size: int, times: int = 1) -> None:
        """Count `times` answered queries of the given size."""
        if size == 1:
            self.size1 += times
        elif size == 2:
            self.size2 += times
        else:
            self.other += times
        self.work_units += max(1, size) * times

    @property
    def total(self) -> int:
        return self.size1 + self.size2 + self.other

    def to_dict(self) -> dict:
        return {"size1": self.size1, "size2": self.size2, "other": self.other}


class CountingOracle:
    """Per-run counting view over an oracle.

    Owned by a single run; never share one across concurrent runs.  Only
    successfully answered queries are counted.
    """

    __slots__ = ("inner", "counts")

    def __init__(self, inner: SetFunctionOracle):
        self.inner = inner
        self.counts = QueryCounts()

    @property
    def ground_size(self) -> int:
        return self.inner.ground_size

    @property
    def budget(self):
        return self.inner.budget

    def evaluate(self, ids: Iterable[int]) -> float:
        s = as_id_set(ids)
        value = self.inner.evaluate(s)
        self.counts.record(len(s))
        return value

    def evaluate_pairs(self, x: int, ys: list[int]) -> list[float]:
        """The inner oracle's column of pairs, counted once it is all answered."""
        values = self.inner.evaluate_pairs(x, ys)
        self.counts.record(2, times=len(values))
        return values

    marginal = SetFunctionOracle.marginal


def k_wise_upper_estimate(oracle, x: int, ids: Iterable[int], k: int) -> float:
    """min f(x|A) over all A within the set with |A| < k, A empty included.

    Non-increasing in k, and f(x) for an empty set.  Each A is asked once,
    folded in by its largest id: 1 + 2 * sum_{1 <= s < k} C(|S|, s) queries.
    """
    if k < 2:
        raise InvalidArgument(f"k must be >= 2, got {k}")
    s = as_id_set(ids)
    if x in s:
        raise DuplicateElement(f"element {x} already in the conditioning set")
    upper = {x: oracle.evaluate((x,))}  # A = empty set
    members = sorted(s)
    for j, y in enumerate(members):
        fold_k_wise(oracle, upper, members[:j], y, oracle.evaluate((y,)), k)
    return upper[x]


def fold_k_wise(oracle, upper: dict, earlier, y: int, f_y: float, k: int) -> None:
    """Lower upper[x], for each candidate x in upper, to f(x|A) over every new A:
    the fresh id y plus at most k-2 ids of earlier (none at k = 1).

    f_y is f({y}), which the caller has already asked.
    """
    for size in range(min(k - 2, len(earlier)) + 1):
        for extra in combinations(earlier, size):
            a = extra + (y,)
            f_a = oracle.evaluate(a) if extra else f_y
            for x in upper:
                marg = oracle.evaluate(a + (x,)) - f_a
                if marg < upper[x]:
                    upper[x] = marg


def argmax(table: dict) -> tuple[int, float]:
    """The key of table with the highest value, and that value.

    Ties go to the key that comes first, the lowest id when keys ascend.
    NonFiniteValue if no value compares above -inf (all NaN or -inf).
    """
    if not table:
        raise InvalidArgument("no candidates remain")
    best_x = None
    best_v = -inf
    for x, v in table.items():
        if v > best_v:
            best_v, best_x = v, x
    if best_x is None:
        x, v = next(iter(table.items()))
        raise NonFiniteValue(f"no candidate has a value above -inf; candidate {x} has {v}")
    return best_x, best_v


class EstimateCache:
    """Current upper/lower marginal estimates for every unselected element.

    base holds f(x) for all elements; upper and lower hold the estimates
    conditioned on the current partial solution, keyed by the remaining
    candidates in ascending order.  condition_on folds one new selection
    into both estimates with one column of pairwise queries, asked through
    oracle.evaluate_pairs, over the remaining candidates.  Owned by a single
    run.
    """

    def __init__(self, oracle):
        self.base = {x: oracle.evaluate((x,)) for x in range(oracle.ground_size)}
        self.upper = dict(self.base)
        self.lower = dict(self.base)

    def condition_on(self, x_i: int, oracle) -> None:
        """Move x_i into the conditioning set and refresh all candidates.

        The column is answered before anything changes, so a query the
        oracle refuses leaves the cache as it was.
        """
        upper, lower, base = self.upper, self.lower, self.base
        if x_i not in upper:
            raise DuplicateElement(f"element {x_i} was already selected")
        order = list(upper)
        order.remove(x_i)
        pairs = oracle.evaluate_pairs(x_i, order)
        del upper[x_i], lower[x_i]
        f_xi = base[x_i]
        for x, f_pair in zip(order, pairs):
            pm = f_pair - f_xi
            if pm < upper[x]:
                upper[x] = pm
            lower[x] -= base[x] - pm

    def argmax_upper(self) -> tuple[int, float]:
        return argmax(self.upper)

    def argmax_lower(self) -> tuple[int, float]:
        return argmax(self.lower)
