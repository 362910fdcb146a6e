"""Timing harness for the quadratic-to-linear runtime separation.

Each record keeps the mean, minimum and maximum wall-clock time over trials
after one untimed warm-up run; the warm-up also supplies the (deterministic)
oracle query counts, whose work_units field is the machine-independent cost
signal the acceptance checks rely on.  Speedup ratios divide minima, so one
preempted trial does not move them.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

from .algorithms import check_run, run_algorithm
from .errors import GridMismatch, InvalidArgument
from .oracles import QueryCounts
from .validation import check_cardinality

CSV_HEADER = "algorithm,m,n,trials,mean_s,min_s,max_s,q1,q2,qother"


@dataclass
class TimingRecord:
    algorithm: str
    m: int
    n: int
    trials: int
    mean_seconds: float
    min_seconds: float
    max_seconds: float
    query_counts: QueryCounts

    def csv_row(self) -> str:
        q = self.query_counts
        return (
            f"{self.algorithm},{self.m},{self.n},{self.trials},"
            f"{self.mean_seconds!r},{self.min_seconds!r},{self.max_seconds!r},"
            f"{q.size1},{q.size2},{q.other}"
        )


def time_algorithm(algorithm: str, oracle, n: int, trials: int,
                   k: int | None = None) -> TimingRecord:
    """Wall-clock statistics for one strategy at one cardinality."""
    if trials < 1:
        raise InvalidArgument(f"trials must be >= 1, got {trials}")
    warm = run_algorithm(algorithm, oracle, n, k=k)  # untimed warm-up
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        run_algorithm(algorithm, oracle, n, k=k)
        times.append(time.perf_counter() - start)
    return TimingRecord(
        algorithm=algorithm,
        m=oracle.ground_size,
        n=n,
        trials=trials,
        mean_seconds=sum(times) / trials,
        min_seconds=min(times),
        max_seconds=max(times),
        query_counts=warm.query_counts,
    )


def scaling_sweep(algorithms, oracle, n_values, trials: int,
                  k: int | None = None) -> list[TimingRecord]:
    """One record per (algorithm, n).  Before anything is timed, the lists
    must be nonempty, each algorithm must pass check_run and appear once, and
    each n lie within 0..m, ascending.

    k goes to k_wise_optimistic only, so one sweep can time it beside the
    other strategies; a k with no k_wise_optimistic to take it is refused.
    """
    algorithms, n_values = list(algorithms), list(n_values)
    ks = {name: k if name == "k_wise_optimistic" else None for name in algorithms}
    if not algorithms or not n_values:
        raise InvalidArgument(f"nothing to time: algorithms {algorithms}, n values {n_values}")
    if k is not None and "k_wise_optimistic" not in ks:
        raise InvalidArgument(f"k applies to k_wise_optimistic only, not {algorithms}")
    for name, k_arg in ks.items():
        check_run(name, k_arg)
        if algorithms.count(name) > 1:
            raise InvalidArgument(f"algorithm {name!r} is listed twice in {algorithms}")
    if n_values != sorted(n_values):
        raise InvalidArgument(f"n_values must be ascending, got {n_values}")
    for n in n_values:
        check_cardinality(n, oracle.ground_size)
    return [time_algorithm(name, oracle, n, trials, k=ks[name])
            for name in algorithms for n in n_values]


def speedup_ratios(full_records, pairwise_records) -> list[tuple[int, float]]:
    """(n, full min / pairwise min) pairs over a shared n grid."""
    full_grid = [r.n for r in full_records]
    pair_grid = [r.n for r in pairwise_records]
    if full_grid != pair_grid:
        raise GridMismatch(f"n grids differ: {full_grid} vs {pair_grid}")
    return [
        (f.n, f.min_seconds / p.min_seconds)
        for f, p in zip(full_records, pairwise_records)
    ]


def records_to_csv(records) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for record in records:
        out.write(record.csv_row() + "\n")
    return out.getvalue()

