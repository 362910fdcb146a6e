"""One benchmark run: set-ups, a closed loop of jobs, output checks, metrics.

A run with trace off reports the end-to-end metrics:

    setup_s             median time from input files to ready oracles
    job_ms.p50          median wall time of one job
    job_ms.tail         highest of TAIL_PERCENTILES with ten jobs beyond it
    jobs_per_s          completed jobs per second of job time in the closed loop
    queries_per_job     oracle queries answered in one job (exact)
    work_units_per_job  sum of max(1, |S|) over those queries (exact)
    max_rss_mb          peak resident memory, read right after the loop

Every time is scaled to the host's nominal speed by the calibration loop
timed between jobs (speed.py); the report also prints raw wall times.

A run with trace on spends half its time in the same untraced loop and half
in a traced one, and reports the per-layer split (PER_LAYER).  Self times are
seconds per job; counts are per job and come from one extra counting job,
because they repeat exactly.  Every job's output is checked against the
workload's reference after the timed loop and against the run's first job.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import tempfile
import time
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed
from pairsub.algorithms import RunTrace
from pairsub.verify import VerificationReport
from workloads import WORKLOADS

SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"

SETUP_REPEATS = 7          # set-up batches per run, at least; setup_s is their median
SETUP_MIN_SECONDS = 0.5    # and at least this long in total
SETUP_BATCH_SECONDS = 0.02  # set-ups repeat within a batch until it lasts this long
SPAN_LIMIT = 1_000_000     # the traced loop stops early past this many spans
MIN_JOBS = 40              # the timed loop runs past --seconds until this many, so
                           # job_ms.tail stays p75 (ten jobs beyond) on a slow host
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "jobs_per_s": "1/s",
    "queries_per_job": "count",
    "work_units_per_job": "count",
    "max_rss_mb": "MB",
}

# Self time per job of each layer, and the spans it sums.  Together they
# cover every span under a job, which `layer_metrics` checks.
SELF_TIMES = {
    "functions.eval.self_s": spans.EVAL_SPANS,
    "oracles.evaluate.self_s": ("oracles.evaluate",),
    "oracles.counting.self_s": ("oracles.counting",),
    "oracles.marginal.self_s": ("oracles.marginal",),
    "oracles.cache.init.self_s": ("oracles.cache.init",),
    "oracles.cache.refresh.self_s": ("oracles.cache.refresh",),
    "oracles.cache.argmax.self_s": ("oracles.cache.argmax",),
    "algorithms.run.self_s": ("algorithms.run",),
    "bounds.post_hoc.self_s": ("bounds.post_hoc",),
    "bounds.curvature.self_s": ("bounds.curvature",),
    "bounds.alphas.self_s": ("bounds.alphas",),
    "verify.subset_values.self_s": ("verify.subset_values",),
    "verify.checks.self_s": ("verify.checks",),
    "trace.bench.self_s": ("job",),
}

# Inclusive time per job of the phases a job is made of.
INCLUSIVE_TIMES = {
    "algorithms.run.s": "algorithms.run",
    "bounds.post_hoc.s": "bounds.post_hoc",
    "bounds.curvature.s": "bounds.curvature",
    "bounds.alphas.s": "bounds.alphas",
    "verify.checks.s": "verify.checks",
}

# Self time per set-up (median over the traced set-ups).
SETUP_TIMES = {
    "data.load_districts.s": "data.load_districts",
    "data.build_coverage_instance.s": "data.build_coverage_instance",
    "functions.build.s": "functions.build",
}

COUNTS = (
    "functions.eval.calls", "functions.eval.calls_pair", "functions.eval.calls_large",
    "oracles.cache.refresh.calls", "oracles.cache.refresh.candidates",
    "oracles.cache.argmax.calls",
    "algorithms.queries.size1", "algorithms.queries.size2", "algorithms.queries.other",
    "bounds.post_hoc.queries", "bounds.curvature.queries", "verify.instances_checked",
)

PER_LAYER = {
    **dict.fromkeys(SETUP_TIMES, "s"),
    **dict.fromkeys(SELF_TIMES, "s"),
    **dict.fromkeys(INCLUSIVE_TIMES, "s"),
    **dict.fromkeys(COUNTS, "count"),
    "functions.eval.pair_us": "us",
    "functions.eval.share": "ratio",
    "oracles.evaluate.repeat_ratio": "ratio",
    "oracles.cache.refresh.useful_ratio": "ratio",
    "verify.instances_per_s": "1/s",
    "trace.job_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Loop:
    """Jobs of one closed loop: scaled and raw times of completed jobs, outputs, errors."""

    times: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: int = 0


def closed_loop(state, seconds: float, job, min_jobs: int = 1, stop=lambda: False) -> Loop:
    """Jobs back to back, a calibration between each two, until `seconds` have
    passed and `min_jobs` have run, or `stop()` holds."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    before = speed.calibrate()
    while True:
        t0 = time.perf_counter()
        try:
            output = job(state)
        except Exception:  # a failed job is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            loop.errors += 1
            output = None
        elapsed = time.perf_counter() - t0
        after = speed.calibrate()
        if output is not None:
            loop.raw.append(elapsed)
            loop.times.append(speed.scale(elapsed, before, after))
            loop.outputs.append(output)
        before = after
        ran = len(loop.times) + loop.errors
        if time.perf_counter() >= deadline and ran >= min_jobs or stop():
            return loop


def timed_setups(paths, setup):
    """Set up in batches of at least SETUP_BATCH_SECONDS between calibrations.

    Returns the scaled and raw time of one set-up in each batch, and the last
    ready state.
    """
    times, raw, state = [], [], None
    begin = time.perf_counter()
    before = speed.calibrate()
    while len(times) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_SECONDS:
        count, t0 = 0, time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < SETUP_BATCH_SECONDS:
            state = None  # let the previous state go before building the next
            state = setup(paths)
            count += 1
        elapsed = (time.perf_counter() - t0) / count
        after = speed.calibrate()
        raw.append(elapsed)
        times.append(speed.scale(elapsed, before, after))
        before = after
    return times, raw, state


def tail(times):
    """(percentile, value): the highest of TAIL_PERCENTILES with ten jobs beyond it.

    The value is interpolated between the two nearest jobs, which steadies
    it across runs.
    """
    count = len(times)
    p = next((p for p in TAIL_PERCENTILES if count - math.ceil(p / 100 * count) >= 10), 50)
    if count < 2:
        return p, times[0]
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


class Checks:
    """Checks every output of one run and tallies attempts and failures."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.expected = workload.expected(state)
        self.first = None
        self.attempted = self.failed = 0
        self.objective: list[float] = []
        self.gamma: list[float] = []
        self.problems: list[str] = []

    def add(self, outputs, errors: int = 0) -> None:
        self.attempted += len(outputs) + errors
        self.failed += errors
        for output in outputs:
            outcome = self.workload.check(self.state, output, self.expected)
            if self.first is None:
                self.first = outcome.digest
            elif outcome.digest != self.first:
                outcome.problems.append("output differs from the run's first job")
            if outcome.problems:
                self.failed += 1
                self.problems.extend(outcome.problems)
            self.objective.extend(outcome.objective)
            self.gamma.extend(outcome.gamma)


def counting_job(workload, paths):
    """One set-up and one job with spans and exact counting.

    Returns the job's output and its per-job counts; the problems list names
    any phase above the workload's query limit.
    """
    recorder, detail = spans.Recorder(), spans.Detail()
    with spans.install(recorder, detail):
        state = workload.setup(paths)
        output = recorder.wrap("job", workload.job)(state)
    totals = spans.aggregate(recorder)
    calls = {span: c for (root, span), c in totals.calls.items() if root == "job"}
    by_phase = {phase: c for (phase, span), c in totals.phase_calls.items()
                if span == "oracles.evaluate" and phase}
    items = output if isinstance(output, (tuple, list)) else ()
    runs = [item.query_counts for item in items if isinstance(item, RunTrace)]
    small, pair, large = (calls.get(n, 0) for n in spans.EVAL_SPANS)
    counts = {
        "queries_per_job": detail.answered,
        "work_units_per_job": detail.work_units,
        "functions.eval.calls": small + pair + large,
        "functions.eval.calls_pair": pair,
        "functions.eval.calls_large": large,
        "oracles.evaluate.repeat_ratio": detail.repeat_ratio,
        "oracles.cache.refresh.calls": calls.get("oracles.cache.refresh", 0),
        "oracles.cache.refresh.candidates": detail.refreshed,
        "oracles.cache.refresh.useful_ratio":
            detail.lowered / detail.refreshed if detail.refreshed else 0.0,
        "oracles.cache.argmax.calls": calls.get("oracles.cache.argmax", 0),
        "algorithms.queries.size1": sum(q.size1 for q in runs),
        "algorithms.queries.size2": sum(q.size2 for q in runs),
        "algorithms.queries.other": sum(q.other for q in runs),
        "bounds.post_hoc.queries": by_phase.get("bounds.post_hoc", 0),
        "bounds.curvature.queries": by_phase.get("bounds.curvature", 0),
        "verify.instances_checked": sum(item.instances_checked for item in items
                                        if isinstance(item, VerificationReport)),
    }
    return output, counts, workload.check_counts(state, by_phase)


def layer_metrics(recorder, untraced: Loop, traced: Loop, setup_speed: float, counts):
    """The per-layer split of the traced jobs; problems if the spans do not add up.

    Span times are raw; they are scaled by the traced loop's (or the traced
    set-ups') ratio of scaled to raw time.
    """
    totals = spans.aggregate(recorder)
    problems = []
    if totals.negative_self:
        problems.append(f"{totals.negative_self} spans end before their children")
    jobs = totals.roots["job"]
    per_job = len(jobs) * 1e9 / (sum(traced.times) / sum(traced.raw))
    job_self = totals.self_ns("job")
    covered = {span for names in SELF_TIMES.values() for span in names}
    if set(job_self) - covered:
        problems.append(f"spans missing from the layer split: {sorted(set(job_self) - covered)}")
    if sum(job_self.values()) != sum(jobs):
        problems.append("layer self times do not add up to the traced job time")
    metrics = {name: sum(job_self.get(s, 0) for s in names) / per_job
               for name, names in SELF_TIMES.items()}
    for name, span in INCLUSIVE_TIMES.items():
        metrics[name] = totals.incl_ns.get(("job", span), 0) / per_job
    setups = [self_ns for root, self_ns in totals.per_root_self if root == "setup"]
    for name, span in SETUP_TIMES.items():
        metrics[name] = statistics.median(s.get(span, 0) for s in setups) / 1e9 * setup_speed
    pair_calls = totals.calls.get(("job", spans.EVAL_SPANS[1]), 0)
    metrics["functions.eval.pair_us"] = (
        job_self.get(spans.EVAL_SPANS[1], 0) / per_job * 1e6 * len(jobs) / pair_calls
        if pair_calls else 0.0)
    metrics["trace.job_s"] = sum(jobs) / per_job
    metrics["functions.eval.share"] = metrics["functions.eval.self_s"] / metrics["trace.job_s"]
    untraced_p50 = statistics.median(untraced.times)
    metrics["trace.overhead_ratio"] = statistics.median(traced.times) / untraced_p50
    metrics["verify.instances_per_s"] = counts["verify.instances_checked"] / untraced_p50
    metrics.update((name, value) for name, value in counts.items() if name in PER_LAYER)
    return metrics, problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            workload=None, scratch: Path = SCRATCH):
    """Run workload `name` (or the given workload object) for `seconds`.

    Returns the result object and the report lines.
    """
    workload = workload or WORKLOADS[name]
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as inputs:
        paths = workload.write_inputs(random.Random(seed), Path(inputs))
        setup_times, setup_raw, state = timed_setups(paths, workload.setup)
        warm = closed_loop(state, 0.0, workload.job)
        gc.collect()
        loop = (closed_loop(state, seconds / 2, workload.job) if trace
                else closed_loop(state, seconds, workload.job, MIN_JOBS))
        max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            recorder = spans.Recorder()
            with spans.install(recorder):
                traced_setups, traced_setup_raw, traced_state = timed_setups(
                    paths, recorder.wrap("setup", workload.setup))
                traced = closed_loop(traced_state, seconds / 2, recorder.wrap("job", workload.job),
                                     stop=lambda: len(recorder.name) >= SPAN_LIMIT)
            recorder.write(scratch / f"spans-{name}.bin")
        try:
            count_output, counts, count_problems = counting_job(workload, paths)
        except Exception as exc:  # counted as a failed job, like one in the loop
            traceback.print_exc(file=sys.stderr)
            count_output, counts, count_problems = None, None, [f"counting job failed: {exc!r}"]

    checks = Checks(workload, state)
    for run in (warm, loop) + ((traced,) if trace else ()):
        checks.add(run.outputs, run.errors)
    checks.add([count_output] if counts else [], 0 if counts else 1)
    checks.problems.extend(count_problems)
    tail_p, tail_s = tail(loop.times) if loop.times else (None, None)
    if not counts or not loop.times or trace and not traced.times:
        metrics, units = {}, PER_LAYER if trace else END_TO_END
    elif trace:
        setup_speed = sum(traced_setups) / sum(traced_setup_raw)
        metrics, trace_problems = layer_metrics(recorder, loop, traced, setup_speed, counts)
        checks.problems.extend(trace_problems)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "job_ms.p50": statistics.median(loop.times) * 1e3,
            "job_ms.tail": tail_s * 1e3,
            "jobs_per_s": len(loop.times) / sum(loop.times),
            "queries_per_job": counts["queries_per_job"],
            "work_units_per_job": counts["work_units_per_job"],
            "max_rss_mb": max_rss_mb,
        }
        units = END_TO_END

    correct = checks.failed == 0 and not checks.problems and len(metrics) == len(units)
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    report = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    report += [f"  {k:<36} {v['value']:>14.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if loop.times:
        report.append(f"  raw wall time: job p50 {statistics.median(loop.raw) * 1e3:.6g} ms, "
                      f"set-up p50 {statistics.median(setup_raw):.6g} s; times above are "
                      f"scaled to nominal host speed (speed.py)")
    if loop.times and not trace:
        report.append(f"  job_ms.tail is p{tail_p} of {len(loop.times)} timed jobs")
    report.append(f"  failed_frac {checks.failed / max(checks.attempted, 1):.6g} "
                  f"({checks.failed} of {checks.attempted} jobs)")
    for label, values in (("objective", checks.objective), ("gamma", checks.gamma)):
        if values:
            report.append(f"  {label} {statistics.fmean(values)!r} (mean over {len(values)})")
    report += [f"  problem: {problem}" for problem in dict.fromkeys(checks.problems)]
    return result, report
