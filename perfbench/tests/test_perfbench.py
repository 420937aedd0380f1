"""Tests of the benchmark itself (tiny smoke sizes; about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, patch_method, undo_all  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json: names, units, result line
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = result_line(run_cli(workload, seed=1, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_traced_smoke_run_emits_every_layer_and_sums(workload):
    result = result_line(run_cli(workload, seed=2, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert abs(metrics["trace.sum_error_s"]) < 1e-6
    assert metrics["trace.op_s"] > 0 and metrics["trace.overhead_ratio"] > 0
    record = json.loads(
        (common.OUT_DIR / "runs" / f"{workload}-seed2-trace1.json").read_text()
    )
    assert report.check(record) is None  # the sum holds and the residual is small
    assert metrics["trace.residual_s"] < report.RESIDUAL_MAX_SHARE * metrics["trace.op_s"]
    assert metrics["runner.executions_per_distinct_hash"] == 1.0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    start = time.monotonic()
    proc = run_cli("paper-49", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.monotonic() - start < 180


# ----------------------------------------------------------------------
# Seeds and output checks
# ----------------------------------------------------------------------
def test_seed_argument_changes_per_op_seeds():
    assert common.op_seed(1, "paper-49", 0) == common.op_seed(1, "paper-49", 0)
    assert common.op_seed(1, "paper-49", 0) != common.op_seed(2, "paper-49", 0)
    assert common.op_seed(1, "paper-49", 0) != common.op_seed(1, "paper-49", 1)


def test_exact_tier_digests_repeat_per_seed_and_change_with_it(tmp_path):
    def digests(seed):
        record = worker.run_workload("paper-49", seed, seconds=0.0, trace=False,
                                     smoke=True, out_dir=tmp_path)
        assert record["failed"] == 0
        return record["digests"], record["mean_accuracy"], record["exact_fraction"]

    first, again, other = digests(5), digests(5), digests(6)
    assert first == again
    assert first[0] != other[0]


def test_failures_are_counted_and_left_out_of_timings(tmp_path, monkeypatch):
    run = worker.Run()

    def boom():
        raise RuntimeError("injected")

    assert run.timed("cold", boom) is None
    assert run.timed("cold", lambda: 1, lambda _: "wrong output") is None
    assert run.timed("cold", lambda: 2) == 2
    assert (run.attempted, run.failed, len(run.samples["cold"])) == (3, 2, 1)

    strict = worker.make_workload("paper-2116", smoke=True)
    strict.min_op_accuracy = 1.01  # no solve reaches it: every cold op fails its check
    monkeypatch.setattr(worker, "make_workload", lambda name, smoke=False: strict)
    record = worker.run_workload("paper-2116", 1, seconds=0.0, trace=False, smoke=True,
                                 out_dir=tmp_path)
    assert record["failed"] >= 1 + strict.min_ops  # the warm-up and every timed op
    assert "cold" not in record["samples"]


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_ops_are_scaled_by_the_kernel_timed_during_them():
    sampler = common.HostSampler()
    sampler.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    sampler.kernels = [0.001, 0.001, 0.002, 0.002, 0.002, 0.001]
    # Three samples inside the op: their median, 2 ms, sets its scale.
    assert sampler.scale(4.0, 2.5, 5.5) == pytest.approx(4.0 * common.REFERENCE_KERNEL_S / 0.002)
    # A short op takes the three samples nearest to it.
    assert sampler.kernel_during(1.1, 1.2) == pytest.approx(0.001)
    assert sampler.kernel_during(4.4, 4.5) == pytest.approx(0.002)


def test_sampler_time_is_left_out_of_op_time():
    sampler = common.HostSampler(interval_s=0.01)
    run = worker.Run(sampler)
    sampler.start()
    try:
        run.timed("cold", lambda: time.sleep(0.3))
    finally:
        sampler.stop()
    assert sampler.spent > 0 and len(sampler.kernels) >= 10
    assert run.samples["cold"][0] == pytest.approx(0.3 - sampler.spent, abs=0.02)
    kernel = sampler.kernel_during(0.0, time.perf_counter())
    assert run.scaled["cold"][0] == pytest.approx(
        run.samples["cold"][0] * common.REFERENCE_KERNEL_S / kernel
    )


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_time_is_span_time_minus_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return "x"

        def outer(self):
            return self.inner() + self.inner()

    undo = []
    patch_method(tracer, Layer, "inner", "inner", undo)
    patch_method(tracer, Layer, "outer", "outer", undo)
    tracer.set_op("0")
    with tracer.span("op.cold"):
        assert Layer().outer() == "xx"
    undo_all(undo)
    table = tracer.aggregates()["self"]["0"]
    # clock: op 0, outer 1, inner 2-3, inner 4-5, outer ends 6, op ends 7
    assert table == {"op.cold": 2.0, "outer": 3.0, "inner": 2.0}
    assert Layer.outer.__name__ == "outer" and "inner" in Layer.__dict__


def test_injected_coupling_delay_moves_the_layer_and_the_op(tmp_path, monkeypatch):
    """A slower CSR kernel must show in ``batched.coupling_apply_s`` and in
    paper-2116's ``op_s``."""
    from repro.dynamics.batched import FastSharedCoupling

    def measure():
        untraced = worker.run_workload("paper-2116", 3, seconds=1.0, trace=False,
                                       smoke=True, out_dir=tmp_path)
        traced = worker.run_workload("paper-2116", 3, seconds=1.0, trace=True,
                                     smoke=True, out_dir=tmp_path)
        trace = traced["trace"]
        per_layer = layers.per_layer_metrics(trace["aggregates"], trace["ops"],
                                             trace["registry_delta"], trace["extra"])
        # A second of delay is REFERENCE_KERNEL_S / kernel time seconds of op_s.
        factor = common.REFERENCE_KERNEL_S / statistics.median(untraced["kernels_s"])
        return bench_run.end_to_end("paper-2116", untraced, [0.0])["op_s"], per_layer, factor

    base_op, base_layers, _ = measure()
    original = FastSharedCoupling.apply_pair
    delay_s = 2e-4

    def slow_apply_pair(self, first, second):
        time.sleep(delay_s)
        return original(self, first, second)

    monkeypatch.setattr(FastSharedCoupling, "apply_pair", slow_apply_pair)
    slow_op, slow_layers, factor = measure()
    calls = slow_layers["batched.coupling_applies"]
    # Stage 1 runs on the shared operator: about half the applies are delayed.
    expected = 0.4 * calls * delay_s
    assert slow_layers["batched.coupling_apply_s"] - base_layers["batched.coupling_apply_s"] > expected
    assert slow_op - base_op > expected * factor
    assert abs(slow_layers["trace.sum_error_s"]) < 1e-6
    assert slow_layers["trace.residual_s"] < report.RESIDUAL_MAX_SHARE * slow_layers["trace.op_s"]


def test_residual_check_catches_unwrapped_layers(tmp_path, monkeypatch):
    """With no layer wrapped the whole op is residual, and the check says so."""
    monkeypatch.setattr(layers, "install", lambda tracer: [])
    traced = worker.run_workload("paper-49", 4, seconds=0.0, trace=True, smoke=True,
                                 out_dir=tmp_path)
    trace = traced["trace"]
    metrics = layers.per_layer_metrics(trace["aggregates"], trace["ops"],
                                       trace["registry_delta"], trace["extra"])
    count = len(trace["ops"])
    record = {
        "blocking_self_s_per_op": {name: value / count for name, value in trace["blocking"].items()},
        "metrics": metrics,
    }
    assert metrics["trace.residual_s"] == pytest.approx(metrics["trace.op_s"])
    assert "not wrapped" in report.check(record)
