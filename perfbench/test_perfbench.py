"""Tests of the benchmark itself.  Run with `python -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import spans
from pairsub.algorithms import Selection
from workloads import CityOptimistic, Properties, SparsePessimistic, TownAudit

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "city_optimistic": CityOptimistic(n=5, districts=30),
    "sparse_pessimistic": SparsePessimistic(n=6, m=60, universe=200),
    "town_audit": TownAudit(n=4, districts=16),
    "properties": Properties(m=4, samples=50),
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(measure.WORKLOADS)
    assert sorted(TINY) == sorted(measure.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result, report = measure.measure(name, 3, 0.05, trace, TINY[name], tmp_path)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 3
    printed = {t[0]: t[2] for t in map(str.split, report) if len(t) == 3}
    assert {k: printed.get(k) for k in declared} == declared
    json.dumps(result, allow_nan=False)


def test_traced_layers_account_for_the_job(tmp_path):
    result, _ = measure.measure("town_audit", 4, 0.05, True, TINY["town_audit"], tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[name] for name in measure.SELF_TIMES)
    assert layers == pytest.approx(m["trace.job_s"], rel=1e-9)
    assert m["oracles.cache.refresh.calls"] == 0
    assert (tmp_path / "spans-town_audit.bin").stat().st_size > 0


class SwappedCity(CityOptimistic):
    """Swaps the first two picks of every run: a corrupted output."""

    def job(self, state):
        run, cert = super().job(state)
        first, second = run.selections[:2]
        run.selections[:2] = [Selection(1, second.element, first.estimate),
                              Selection(2, first.element, second.estimate)]
        return run, cert


def test_swapped_selection_is_counted_as_failed(tmp_path):
    workload = SwappedCity(n=5, districts=30)
    result, report = measure.measure("city_optimistic", 3, 0.05, False, workload, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert any("differs from the reference" in line for line in report)


class RaisingTown(TownAudit):
    def job(self, oracle):
        raise RuntimeError("job failed")


def test_raising_job_is_counted_as_failed(tmp_path):
    result, _ = measure.measure("town_audit", 3, 0.05, False, RaisingTown(n=4, districts=16),
                                tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_tail_keeps_ten_jobs_beyond():
    assert measure.tail(list(range(1, 31))) == (50, 15.5)
    assert measure.tail(list(range(1, 40))) == (50, 20)
    assert measure.tail(list(range(1, 41))) == (75, 30.25)
    assert measure.tail(list(range(1, 101))) == pytest.approx((90, 90.1))


def test_self_times_subtract_children():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(1000)))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(3)])
    recorder.wrap("job", outer)()
    totals = spans.aggregate(recorder)
    assert totals.calls[("job", "inner")] == 3
    assert sum(totals.self_ns("job").values()) == totals.roots["job"][0]
    assert totals.negative_self == 0


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "city_optimistic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


class UncountableTown(TownAudit):
    """Jobs pass, but the counting job (the only one under spans) fails."""

    def job(self, oracle):
        if not hasattr(spans.functions.build_oracle, "__wrapped__"):
            return super().job(oracle)
        raise RuntimeError("job failed under spans")


def test_failed_counting_job_is_counted_as_failed(tmp_path):
    result, report = measure.measure("town_audit", 3, 0.05, False,
                                     UncountableTown(n=4, districts=16), tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert any("counting job failed" in line for line in report)
