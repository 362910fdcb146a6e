"""Layer spans recorded from outside the program.

`install` wraps the public functions and methods of the pairsub modules for
the duration of a `with` block and restores them afterwards; nothing under
src/ changes.  Each wrapped call records one span (name, parent, start, end)
into parallel in-memory arrays, written out only when the run ends.  A
layer's self time is its spans' duration minus the time their child spans
cover, so the self times of every span under a root add up to the root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from dataclasses import dataclass, field

from pairsub import algorithms, bounds, data, functions, verify
from pairsub.oracles import CountingOracle, EstimateCache, SetFunctionOracle

# (owner, attribute, span name).  Module functions are patched on their own
# module, so calls made through module globals inside pairsub see them too.
# An attribute the program no longer has is skipped.
PATCHES = (
    (data, "load_districts", "data.load_districts"),
    (data, "build_coverage_instance", "data.build_coverage_instance"),
    (functions, "load_instance", "functions.build"),
    (algorithms, "greedy_full", "algorithms.run"),
    (algorithms, "greedy_uninformed", "algorithms.run"),
    (algorithms, "greedy_optimistic", "algorithms.run"),
    (algorithms, "greedy_pessimistic", "algorithms.run"),
    (algorithms, "greedy_k_wise_optimistic", "algorithms.run"),
    (bounds, "post_hoc_bound", "bounds.post_hoc"),
    (bounds, "k_cardinality_curvature", "bounds.curvature"),
    (bounds, "alphas_optimistic", "bounds.alphas"),
    (bounds, "alphas_k_wise", "bounds.alphas"),
    (bounds, "alphas_pessimistic", "bounds.alphas"),
    (bounds, "bound_from_alphas", "bounds.alphas"),
    (verify, "subset_values", "verify.subset_values"),
    (SetFunctionOracle, "evaluate", "oracles.evaluate"),
    (SetFunctionOracle, "marginal", "oracles.marginal"),
    (CountingOracle, "evaluate", "oracles.counting"),
    (CountingOracle, "marginal", "oracles.marginal"),
    (EstimateCache, "__init__", "oracles.cache.init"),
    (EstimateCache, "condition_on", "oracles.cache.refresh"),
    (EstimateCache, "argmax_upper", "oracles.cache.argmax"),
    (EstimateCache, "argmax_lower", "oracles.cache.argmax"),
    (EstimateCache, "max_upper", "oracles.cache.argmax"),
)

# The family `_eval`, split by query size.
EVAL_SPANS = ("functions.eval.small", "functions.eval.pair", "functions.eval.large")

# Spans whose subtree is a phase of a job; queries are attributed to the
# innermost enclosing phase.
PHASES = ("algorithms.run", "bounds.post_hoc", "bounds.curvature", "bounds.alphas",
          "verify.checks")


class Recorder:
    """Spans kept in memory as parallel arrays: name id, parent, start, end (ns)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return spanned

    def wrap_eval(self, fn):
        """A family `_eval`, recording one span per call named by query size."""
        by_size = [self.name_id(n) for n in EVAL_SPANS]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def spanned(s):
            idx = len(names)
            size = len(s)
            names.append(by_size[0 if size < 2 else 1 if size == 2 else 2])
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(s)
            finally:
                ends[idx] = clock()
                stack.pop()

        return spanned

    def write(self, path) -> None:
        """A JSON header line, then the four arrays in machine byte order."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.name),
                      "arrays": ["name:H", "parent:i", "start_ns:q", "end_ns:q"]}
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


@dataclass
class Detail:
    """Exact counts that need more than a span: only for the counting job."""

    answered: int = 0
    work_units: int = 0
    seen: set = field(default_factory=set)  # (oracle id, id-set) pairs answered
    refreshed: int = 0
    lowered: int = 0

    @property
    def repeat_ratio(self) -> float:
        return (self.answered - len(self.seen)) / self.answered if self.answered else 0.0


def _detail_evaluate(fn, detail: Detail):
    def evaluate(self, ids):
        s = frozenset(ids)
        value = fn(self, s)
        detail.answered += 1
        detail.work_units += max(1, len(s))
        detail.seen.add((id(self), s))
        return value

    return evaluate


def _detail_refresh(fn, detail: Detail):
    def condition_on(self, x_i, oracle):
        before = dict(self.upper)
        fn(self, x_i, oracle)
        detail.refreshed += len(self.upper)
        detail.lowered += sum(1 for x, v in self.upper.items() if v < before[x])

    return condition_on


@contextlib.contextmanager
def install(recorder: Recorder, detail: Detail | None = None):
    """Patch every layer boundary to record into `recorder` until exit.

    Oracles built inside the block come out of `build_oracle` re-wrapped
    through the public SetFunctionOracle constructor, so their `_eval` calls
    are spans too.  With `detail`, answered queries, work units, distinct
    id-sets and useful estimate refreshes are counted as well.
    """
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    build = functions.build_oracle

    def build_oracle(spec):
        oracle = build(spec)
        return SetFunctionOracle(oracle.ground_size, recorder.wrap_eval(oracle._eval),
                                 budget=oracle.budget, name=oracle.name, spec=oracle.spec)

    try:
        patch(functions, "build_oracle", recorder.wrap("functions.build", build_oracle))
        for owner, attr, name in PATCHES:
            fn = getattr(owner, attr, None)
            if fn is None:  # gone from the program: its layer reads 0
                continue
            if detail is not None and (owner, attr) == (SetFunctionOracle, "evaluate"):
                fn = _detail_evaluate(fn, detail)
            if detail is not None and (owner, attr) == (EstimateCache, "condition_on"):
                fn = _detail_refresh(fn, detail)
            patch(owner, attr, recorder.wrap(name, fn))
        checks = verify.ALL_CHECKS
        for key, check in list(checks.items()):
            saved.append((checks, key, check))
            checks[key] = recorder.wrap("verify.checks", check)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            if owner is verify.ALL_CHECKS:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


@dataclass
class Totals:
    """Aggregates of one recorder's spans."""

    roots: dict = field(default_factory=dict)        # root name -> [durations ns]
    per_root_self: list = field(default_factory=list)  # [(root name, {span name: self ns})]
    incl_ns: dict = field(default_factory=dict)      # (root, phase) -> ns of outermost spans
    calls: dict = field(default_factory=dict)        # (root name, span name) -> calls
    phase_calls: dict = field(default_factory=dict)  # (innermost phase, span name) -> calls
    negative_self: int = 0                           # spans outlived by their children

    def self_ns(self, root: str) -> dict:
        """Total self time by span name under the roots named `root`."""
        total: dict[str, int] = {}
        for name, spans in self.per_root_self:
            if name == root:
                for span, ns in spans.items():
                    total[span] = total.get(span, 0) + ns
        return total


def aggregate(recorder: Recorder) -> Totals:
    """Self times, inclusive phase times and call counts of every span."""
    names, name, parent = recorder.names, recorder.name, recorder.parent
    count = len(name)
    dur = array("q", (e - s for s, e in zip(recorder.start, recorder.end)))
    child = array("q", bytes(8 * count))
    root = array("q", range(count))
    phase = [""] * count
    for i in range(count):  # a parent's index is always below its children's
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            root[i] = root[p]
            phase[i] = names[name[i]] if names[name[i]] in PHASES else phase[p]
    totals = Totals()
    by_root: dict[int, dict] = {}
    for i in range(count):
        span = names[name[i]]
        key = (names[name[root[i]]], span)
        self_ns = dur[i] - child[i]
        totals.negative_self += self_ns < 0
        if parent[i] < 0:
            totals.roots.setdefault(span, []).append(dur[i])
        elif span in PHASES and phase[parent[i]] != span:
            totals.incl_ns[key] = totals.incl_ns.get(key, 0) + dur[i]
        totals.calls[key] = totals.calls.get(key, 0) + 1
        pkey = (phase[i], span)
        totals.phase_calls[pkey] = totals.phase_calls.get(pkey, 0) + 1
        spans = by_root.setdefault(root[i], {})
        spans[span] = spans.get(span, 0) + self_ns
    totals.per_root_self = [(names[name[r]], spans) for r, spans in sorted(by_root.items())]
    return totals
