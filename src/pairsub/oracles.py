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

A greedy run keeps its remaining candidates as an ascending id list, and
the estimate it ranks by as a float list aligned with it by position: a
pick is deleted from every aligned list at its position, and
argmax(ids, values) is the one pick rule, ties going to the first
position, the lowest id.  Each estimate rule has one home, which folds a
column already answered into a new list, one comprehension per column:
fold_upper the min rule (fold_k_wise asks its columns), fold_lower the
redundancy rule.

EstimateCache keeps both tables for Algorithm 1 as such lists, lower only
over the picks; Algorithm 1 reads the best upper value by one builtin max.

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
    upper = [f_x]  # A = empty set
    for j, (y, f_y) in enumerate(zip(members, singles)):
        upper = fold_k_wise(oracle, [x], upper, members[:j], y, f_y, k)
    return upper[0]


def fold_k_wise(oracle, ids: list, upper: list, earlier, y: int, f_y: float, k: int) -> list:
    """upper, the estimates of ids by position, each lowered to f(x|A) over
    every new A: the fresh id y plus at most k-2 ids of earlier (none at k = 1).

    f_y is f({y}), which the caller has already asked; any larger f(A) is
    asked first.  The sets A + x are one _column(A, ids) per A, so ids must
    be in-range int ids outside A, as a run's candidates are.
    """
    for size in range(min(k - 2, len(earlier)) + 1):
        for extra in combinations(earlier, size):
            a = extra + (y,)
            f_a = oracle.evaluate(a) if extra else f_y
            upper = fold_upper(upper, oracle._column(a, ids), f_a)
    return upper


def fold_upper(upper: list, column, f_a: float) -> list:
    """The min rule: each upper estimate lowered to f(x|A) = f(A + x) - f(A)
    when that is smaller, column holding f(A + x) at x's position."""
    return [m if (m := f - f_a) < u else u for u, f in zip(upper, column)]


def fold_lower(lower: list, base: list, f_y: float, column) -> list:
    """The redundancy rule: f(x) - f(x|y) taken from each lower estimate, base
    holding f({x}) and column f({x, y}) at x's position; f_y is f({y})."""
    return [v - (b - (f - f_y)) for v, b, f in zip(lower, base, column)]


def argmax(ids: list, values: list) -> tuple[int, float]:
    """The position of the highest of values, and that value; ties go to the
    first position, the lowest id, as ids ascend.  NonFiniteValue names, by
    its id in ids, the first NaN value, found by a scan only when the sum of
    the values is NaN, or the first id if no value is above -inf."""
    if not values:
        raise InvalidArgument("no candidates remain")
    if isnan(sum(values)):  # a NaN, or +inf and -inf together
        for x, v in zip(ids, values):
            if v != v:
                raise NonFiniteValue(f"candidate {x} has {v}, which cannot be ranked")
    best = -inf
    for v in values:
        if v > best:
            best = v
    if best == -inf:  # every value is -inf
        raise NonFiniteValue(f"no candidate has a value above -inf; candidate {ids[0]} has -inf")
    return values.index(best), best


class EstimateCache:
    """Marginal estimates conditioned on the current partial solution.

    base is the singleton column.  upper holds every remaining id's upper
    estimate and lower each remaining tracked id's lower one, as lists
    aligned with those ids ascending, read as id -> value dicts.
    condition_on folds a selection into both from one pair column over the
    remaining ids, read for lower at the tracked ids' kept positions in it.
    """

    def __init__(self, oracle, tracked):
        ids, tracked = list(range(oracle.ground_size)), list(tracked)
        check_element_ids(tracked, len(ids))  # before any query
        self.oracle, self.base = oracle, oracle._column((), ids)
        self._ids, self._upper = ids, list(self.base)
        self._tracked = sorted(set(tracked))  # aligned: _at (position in _ids), _singles, _lower
        self._at, self._singles = list(self._tracked), [self.base[x] for x in self._tracked]
        self._lower = list(self._singles)

    upper = property(lambda self: dict(zip(self._ids, self._upper)))
    lower = property(lambda self: dict(zip(self._tracked, self._lower)))

    def condition_on(self, x_i: int, oracle) -> None:
        """Move x_i into the conditioning set and refresh the candidates.

        oracle must be the one the cache was built on, and x_i an id; both
        are checked first.  The column is answered before anything changes,
        so a refused oracle, id or query leaves the cache as it was.
        """
        if oracle is not self.oracle:
            raise InvalidArgument("condition_on must ask the oracle the cache was built on")
        ids, base, tracked, at = self._ids, self.base, self._tracked, self._at
        check_element_ids((x_i,), len(base))  # True equals 1, yet is no id
        j = bisect_left(ids, x_i)
        if ids[j:j + 1] != [x_i]:
            raise DuplicateElement(f"element {x_i} was already selected")
        rest = ids[:j] + ids[j + 1:]
        pairs = oracle._column((x_i,), rest)
        del self._upper[j]
        self._ids, self._upper = rest, fold_upper(self._upper, pairs, base[x_i])
        k = bisect_left(tracked, x_i)
        if tracked[k:k + 1] == [x_i]:
            del tracked[k], at[k], self._singles[k], self._lower[k]
        at[k:] = [p - 1 for p in at[k:]]  # the ids above x_i move down one
        self._lower = fold_lower(self._lower, self._singles, base[x_i], [pairs[p] for p in at])

    def max_upper(self) -> float:
        """argmax's value over upper by one builtin max, which keeps the first
        of equal values; argmax raises for NaN, all -inf and no candidate."""
        if (upper := self._upper) and not isnan(sum(upper)) and (best := max(upper)) > -inf:
            return best
        return argmax(self._ids, upper)[1]

    def lower_of(self, x: int) -> float:
        """The lower estimate of x, a tracked id not yet selected."""
        return self._lower[self._tracked.index(x)]
