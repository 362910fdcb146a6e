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

A greedy run keeps one table of the estimate it ranks by, keyed by the
candidates that remain: a pick deletes its key, so the keys stay in
ascending id order, and argmax(table) is the one pick rule, ties going to
the lowest id.  Each estimate rule has one home, which folds a column
already answered in constant time per candidate: fold_upper the min rule
(fold_k_wise asks its columns), fold_lower the redundancy rule.

EstimateCache keeps both tables for Algorithm 1, which reads the best upper
estimate and the picks' lower ones: lower covers only the ids it tracks.

Every strategy asks its sets by column: evaluate_extensions(a, ys) is
[f(a + {y}) for y in ys], counted by CountingOracle once it is all answered.
A caller's ids are checked per column, with evaluate's errors.  The
library's own ids are checked once, where a run makes them: its candidates
come from range(m), only lose members and never hold a, so its passes ask
through _column, which checks only a and the budget.  A singleton scan is
the column a = (), a pair column is a = (x,), and the full and k-wise greedy
ask f(A + x) for every candidate x as one column per A.  A family that can
answer a whole column at once hands the oracle an extensions(a, ys)
function; without one, every set goes through SetFunctionOracle.evaluate,
with its id and budget checks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import inf, isnan
from typing import Callable, Iterable

from .errors import BudgetExceeded, DuplicateElement, InvalidArgument, NonFiniteValue
from .validation import as_id_set, check_element_ids, check_k


def _check_ids(ids, ground: int) -> None:
    """check_element_ids, run only when a plain scan finds an id that is not
    an in-range int."""
    if ids and (not {*map(type, ids)} <= {int} or min(ids) < 0 or max(ids) >= ground):
        check_element_ids(ids, ground)


class SetFunctionOracle:
    """Black-box access to f: 2^X -> R with an optional query-size budget.

    Queries above the budget raise BudgetExceeded rather than being answered.
    Instances are immutable after construction and safe for concurrent
    read-only evaluation; an eval_fn may still fill a cache shared with the
    restricted() views, if each fill is idempotent and changes no answer.

    extensions_fn, if given, is extensions(a, ys) -> [f(a + {y}) for y in ys]
    for a sorted tuple a of distinct in-range int ids and in-range int ys,
    none of them in a: the same floats evaluate gives for those sets.
    """

    __slots__ = ("ground_size", "budget", "name", "spec", "_eval", "_extensions")

    def __init__(
        self,
        ground_size: int,
        eval_fn: Callable[[frozenset], float],
        budget: int | None = None,
        name: str = "oracle",
        spec=None,
        extensions_fn: Callable[[tuple, list[int]], list[float]] | None = None,
    ):
        if not isinstance(ground_size, int) or isinstance(ground_size, bool) or ground_size < 1:
            raise InvalidArgument("ground_size must be a positive integer")
        if budget is not None and budget < 1:
            raise InvalidArgument("budget must be >= 1, or None for unlimited")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_eval", eval_fn)
        object.__setattr__(self, "_extensions", extensions_fn)

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

    def evaluate_extensions(self, a: Iterable[int], ys: Iterable[int]) -> list[float]:
        """[f(a + {y}) for y in ys], each value the float evaluate gives.

        a holds distinct ids and no y may be in a, so every set has |a| + 1
        members.  Per column, and with evaluate's errors, the ids in a and
        ys are checked, then the overlap, then the budget; an empty ys is []
        before any check.  Each input is read once, so any iterable will do.
        """
        a, ys = tuple(a), list(ys)
        if not ys:
            return []
        ground = self.ground_size
        _check_ids(a, ground)
        _check_ids(ys, ground)
        members = frozenset(a)
        if len(members) < len(a):
            raise DuplicateElement(f"the set {list(a)} repeats an element")
        if not members.isdisjoint(ys):
            y = next(y for y in ys if y in members)
            raise DuplicateElement(f"element {y} cannot be paired with itself" if len(a) == 1
                                   else f"element {y} is already in the set {sorted(a)}")
        return self._column(a, ys)

    def _column(self, a: tuple, ys: list[int]) -> list[float]:
        """evaluate_extensions for ys the library made: in-range int ids,
        none in a.  Only a's ids and the budget are checked.  The family's
        extensions_fn answers the column in one call; without one, every set
        is answered by evaluate."""
        if not ys:
            return []
        _check_ids(a, self.ground_size)
        size = len(a) + 1
        if self.budget is not None and size > self.budget:
            raise BudgetExceeded(f"query of size {size} exceeds information budget {self.budget}")
        if self._extensions is not None:
            return self._extensions(tuple(sorted(a)), ys)
        evaluate = self.evaluate
        return [evaluate(frozenset((y, *a))) for y in ys]

    def marginal(self, x: int, ids: Iterable[int]) -> float:
        """f(x|S) = f(S u {x}) - f(S)."""
        s = as_id_set(ids)
        if x in s:
            raise DuplicateElement(f"element {x} already in the conditioning set")
        return self.evaluate(s | {x}) - self.evaluate(s)

    def restricted(self, budget: int) -> "SetFunctionOracle":
        """A view of the same function with a (tighter) budget, which the
        constructor checks."""
        effective = budget if self.budget is None else min(budget, self.budget)
        return SetFunctionOracle(self.ground_size, self._eval, budget=effective,
                                 name=self.name, spec=self.spec,
                                 extensions_fn=self._extensions)


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

    def evaluate(self, ids: Iterable[int]) -> float:
        s = as_id_set(ids)
        value = self.inner.evaluate(s)
        self.counts.record(len(s))
        return value

    def evaluate_extensions(self, a: Iterable[int], ys: Iterable[int]) -> list[float]:
        """The inner oracle's checked column, counted once it is all answered."""
        a = tuple(a)
        values = self.inner.evaluate_extensions(a, ys)
        self.counts.record(len(a) + 1, times=len(values))
        return values

    def _column(self, a: tuple, ys: list[int]) -> list[float]:
        """The inner oracle's _column, counted once it is all answered."""
        values = self.inner._column(a, ys)
        self.counts.record(len(a) + 1, times=len(values))
        return values


def k_wise_upper_estimate(oracle, x: int, ids: Iterable[int], k: int) -> float:
    """min f(x|A) over all A within the set with |A| < k, A empty included.

    Non-increasing in k, and f(x) for an empty set.  Each A is asked once,
    folded in by its largest id: 1 + 2 * sum_{1 <= s < k} C(|S|, s) queries.
    """
    check_k(k)
    s = as_id_set(ids)
    if x in s:
        raise DuplicateElement(f"element {x} already in the conditioning set")
    members = sorted(s)
    f_x, *singles = oracle.evaluate_extensions((), [x, *members])
    upper = {x: f_x}  # A = empty set
    for j, (y, f_y) in enumerate(zip(members, singles)):
        fold_k_wise(oracle, upper, members[:j], y, f_y, k)
    return upper[x]


def fold_k_wise(oracle, upper: dict, earlier, y: int, f_y: float, k: int) -> None:
    """Lower upper[x], for each candidate x in upper, to f(x|A) over every new A:
    the fresh id y plus at most k-2 ids of earlier (none at k = 1).

    f_y is f({y}), which the caller has already asked; any larger f(A) is
    asked first.  The sets A + x are one _column per A, so upper's keys
    must be in-range int ids outside A, as a run's candidates are.
    """
    for size in range(min(k - 2, len(earlier)) + 1):
        for extra in combinations(earlier, size):
            a = extra + (y,)
            f_a = oracle.evaluate(a) if extra else f_y
            fold_upper(upper, oracle._column(a, list(upper)), f_a)


def fold_upper(upper: dict, column, f_a: float) -> None:
    """The min rule: lower upper[x] to f(x|A) = f(A + x) - f(A) when that is
    smaller, for each key x of upper, column holding f(A + x) in key order."""
    for x, f_ax in zip(upper, column):
        marg = f_ax - f_a
        if marg < upper[x]:
            upper[x] = marg


def fold_lower(lower: dict, base: dict, f_y: float, column) -> None:
    """The redundancy rule: take f(x) - f(x|y) from lower[x] for each key x of
    lower, column holding f({x, y}) in key order; f_y is f({y}) and base
    holds f({x}) for every id."""
    for x, f_xy in zip(lower, column):
        lower[x] -= base[x] - (f_xy - f_y)


def argmax(table: dict) -> tuple[int, float]:
    """The key of table with the highest value, and that value.

    Ties go to the key that comes first, the lowest id when keys ascend.
    NonFiniteValue names the first NaN value, found by a scan only when the
    sum of the values is NaN, or the first key if no value is above -inf.
    """
    if not table:
        raise InvalidArgument("no candidates remain")
    if isnan(sum(table.values())):  # a NaN, or +inf and -inf together
        for x, v in table.items():
            if v != v:
                raise NonFiniteValue(f"candidate {x} has {v}, which cannot be ranked")
    best_x, best_v = None, -inf
    for x, v in table.items():
        if v > best_v:
            best_v, best_x = v, x
    if best_x is None:  # every value is -inf
        raise NonFiniteValue("no candidate has a value above -inf; "
                             f"candidate {next(iter(table))} has -inf")
    return best_x, best_v


class EstimateCache:
    """Marginal estimates conditioned on the current partial solution.

    base holds f(x) for all elements, asked as one column; upper holds every
    remaining candidate's upper estimate and lower the lower estimate of the
    remaining tracked ids, keys ascending.  condition_on folds one new
    selection into both from one pair column _column((x_i,), ...) over the
    remaining candidates.  Owned by a single run.
    """

    def __init__(self, oracle, tracked):
        ids = list(range(oracle.ground_size))
        tracked = list(tracked)
        check_element_ids(tracked, len(ids))  # before any query
        self.oracle = oracle
        self.base = dict(zip(ids, oracle._column((), ids)))
        self.upper = dict(self.base)
        self.lower = {x: self.base[x] for x in sorted(tracked)}

    def condition_on(self, x_i: int, oracle) -> None:
        """Move x_i into the conditioning set and refresh the candidates.

        oracle must be the one the cache was built on, and x_i an id; both
        are checked first.  The column is answered before anything changes,
        so a refused oracle, id or query leaves the cache as it was.
        """
        if oracle is not self.oracle:
            raise InvalidArgument("condition_on must ask the oracle the cache was built on")
        upper, lower, base = self.upper, self.lower, self.base
        check_element_ids((x_i,), len(base))  # True equals 1, yet is no id
        if x_i not in upper:
            raise DuplicateElement(f"element {x_i} was already selected")
        order = list(upper)
        order.remove(x_i)
        pairs = oracle._column((x_i,), order)
        del upper[x_i]
        lower.pop(x_i, None)
        f_xi = base[x_i]
        fold_upper(upper, pairs, f_xi)
        # order ascends, so each tracked x's pair sits at x's rank in it
        fold_lower(lower, base, f_xi, [pairs[bisect_left(order, x)] for x in lower])

    def argmax_upper(self) -> tuple[int, float]:
        return argmax(self.upper)
