"""Runtime benchmark: serial vs multi-worker suite wall-clock, plus warm cache.

Times the scaled evaluation suite (Tables 1-2 + Fig. 5) three ways — serial,
through a 2-worker process pool, and again against a warm result cache — and
prints the measurements.  Results are asserted bit-identical across all three
paths.

The serial-vs-parallel *speedup* is only meaningful when the machine has at
least as many CPUs as workers; on an under-provisioned box the pool measures
pure dispatch overhead, not parallelism, so the speedup is asserted only
with real cores to spread across.

Environment knobs:

* ``REPRO_RUNTIME_BENCH_SCALE`` — suite scale (default 0.1, the CI smoke size).
* ``REPRO_RUNTIME_BENCH_WORKERS`` — parallel worker count (default 2).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments.protocol import run_experiment
from repro.runtime.runner import ExperimentRunner

BENCH_SCALE = float(os.environ.get("REPRO_RUNTIME_BENCH_SCALE", "0.1"))
BENCH_WORKERS = int(os.environ.get("REPRO_RUNTIME_BENCH_WORKERS", "2"))
BENCH_ITERATIONS = 8
BENCH_SEED = 2025


def _fingerprint(result):
    return (
        [(row.problem_name, row.top_accuracy, row.mean_accuracy) for row in result.table1.rows],
        result.table2.msropm_accuracies.tolist(),
        [series.coloring_accuracies.tolist() for series in result.figure5.series],
    )


def _timed_suite(runner):
    start = time.perf_counter()
    result = run_experiment(
        "suite", dict(scale=BENCH_SCALE, iterations=BENCH_ITERATIONS, seed=BENCH_SEED), runner
    )
    return result, time.perf_counter() - start


def test_bench_runtime_suite(tmp_path):
    cache_dir = tmp_path / "cache"

    serial_result, serial_s = _timed_suite(ExperimentRunner(workers=1))
    with ExperimentRunner(workers=BENCH_WORKERS, cache_dir=cache_dir) as parallel_runner:
        parallel_result, parallel_s = _timed_suite(parallel_runner)
    with ExperimentRunner(workers=BENCH_WORKERS, cache_dir=cache_dir) as warm_runner:
        warm_result, warm_s = _timed_suite(warm_runner)

    # Correctness first: all three paths report identical numbers per seed.
    assert _fingerprint(serial_result) == _fingerprint(parallel_result)
    assert _fingerprint(serial_result) == _fingerprint(warm_result)
    # The warm rerun must not solve anything.
    assert warm_result.runner_stats["jobs_run"] == 0

    cpu_count = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cache_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
    print(
        f"\nruntime suite @ scale {BENCH_SCALE}: serial {serial_s:.2f}s, "
        f"{BENCH_WORKERS}-worker {parallel_s:.2f}s ({speedup:.2f}x, "
        f"{cpu_count} cpu(s)), warm cache {warm_s:.2f}s ({cache_speedup:.2f}x)"
    )

    # A warm cache must beat re-solving by a wide margin at any scale.
    assert warm_s < serial_s
    # Pool speedup is only meaningful with real cores to spread across.
    if cpu_count >= 2 * BENCH_WORKERS:
        assert speedup >= 1.2


def _solve_batch(seeds):
    from repro.core.config import MSROPMConfig
    from repro.runtime.jobs import KingsGraphSpec, SolveJob

    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    return [
        SolveJob(spec=KingsGraphSpec(6, 6), config=config, seed=seed, total_iterations=4)
        for seed in seeds
    ]


def _batch_fingerprint(results):
    return [
        [(item.iteration_index, item.seed, item.accuracy) for item in result.iterations]
        for result in results
    ]


def test_bench_fleet_dispatch(tmp_path):
    """Fleet section: spool vs local-pool dispatch overhead at equal parallelism.

    Times one batch of solves through the local process pool and through the
    spool backend (same worker count; the spool spawns ``workers - 1`` fleet
    child processes and the submitter drains alongside them), cold and warm,
    and prints the three timings.  Results are asserted bit-identical across
    serial, pool, and spool topologies — the fleet's core invariant.
    """
    from repro.runtime.executors import SpoolExecutorBackend
    from repro.runtime.scheduler import JobScheduler

    num_jobs = 8
    serial = JobScheduler(workers=1).run(_solve_batch(range(num_jobs)))

    with JobScheduler(workers=BENCH_WORKERS) as pool_scheduler:
        start = time.perf_counter()
        pooled = pool_scheduler.run(_solve_batch(range(num_jobs)))
        local_s = time.perf_counter() - start

    backend = SpoolExecutorBackend(
        tmp_path / "spool", workers=BENCH_WORKERS, poll_interval=0.01
    )
    with JobScheduler(backend=backend) as spool_scheduler:
        # Cold: includes spawning the warm fleet children (python startup).
        start = time.perf_counter()
        spooled = spool_scheduler.run(_solve_batch(range(num_jobs)))
        spool_cold_s = time.perf_counter() - start
        # Warm: children already attached; fresh seeds so nothing is answered.
        start = time.perf_counter()
        spooled_warm = spool_scheduler.run(
            _solve_batch(range(num_jobs, 2 * num_jobs))
        )
        spool_warm_s = time.perf_counter() - start

    assert _batch_fingerprint(serial) == _batch_fingerprint(pooled)
    assert _batch_fingerprint(serial) == _batch_fingerprint(spooled)
    assert len(spooled_warm) == num_jobs

    print(
        f"\nfleet dispatch @ {num_jobs} jobs x {BENCH_WORKERS} workers: "
        f"local pool {local_s:.2f}s, spool cold {spool_cold_s:.2f}s, "
        f"spool warm {spool_warm_s:.2f}s"
    )


def test_bench_service_front_door(tmp_path):
    """Service section: warm front-door latency vs a cold CLI process.

    The service's pitch is amortization: one long-lived runner (warm pool,
    populated memo) answers many requests, where every ``msropm solve``
    invocation pays interpreter + import + pool spin-up from zero.  This
    benchmark times the three request classes against that cold-CLI baseline
    — cache-*miss* (submitted, executed by the warm runner), cache-*hit*
    (resubmitted hash, answered from the memo), and a coalesced burst (N
    concurrent identical submissions, one execution) — and prints them.
    """
    import subprocess
    import sys
    import threading

    from repro.service.server import SolverService

    rows, colors, iterations = 6, 4, 4

    # --- Cold CLI baseline: fresh interpreter, fresh pool, empty cache.
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    start = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "solve",
            "--rows", str(rows), "--colors", str(colors),
            "--iterations", str(iterations), "--seed", str(BENCH_SEED),
            "--cache-dir", str(tmp_path / "cli-cache"),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    cold_cli_s = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr

    # --- Warm service: one persistent runner behind the request handler.
    def spec(seed):
        return {
            "kind": "solve", "rows": rows, "colors": colors,
            "iterations": iterations, "seed": seed,
        }

    def submit(service, seed):
        status, payload, _ = service.handle(
            "POST", "/v1/submit",
            {"protocol": 1, "client": "bench", "jobs": [spec(seed)]},
        )
        assert status == 200
        return payload["tickets"][0]["ticket_id"]

    with ExperimentRunner(workers=1, cache_dir=tmp_path / "service-cache") as runner:
        service = SolverService(runner, tmp_path / "service-cache")
        # Warm the runner's pool/imports on an unrelated seed first, so the
        # miss measurement sees the steady-state front door.
        warm_id = submit(service, BENCH_SEED + 1000)
        assert runner.wait([runner.poll(warm_id)], timeout=300.0)

        start = time.perf_counter()
        miss_id = submit(service, BENCH_SEED)
        assert runner.wait([runner.poll(miss_id)], timeout=300.0)
        status, _, _ = service.handle("GET", f"/v1/tickets/{miss_id}?result=1", None)
        warm_miss_s = time.perf_counter() - start
        assert status == 200

        start = time.perf_counter()
        hit_id = submit(service, BENCH_SEED)
        status, _, _ = service.handle("GET", f"/v1/tickets/{hit_id}?result=1", None)
        warm_hit_s = time.perf_counter() - start
        assert status == 200
        assert hit_id == miss_id
        assert runner.stats()["tickets_cache_served"] == 1

        # Coalesced burst: concurrent identical submissions, one execution.
        burst = 8
        burst_seed = BENCH_SEED + 2000
        barrier = threading.Barrier(burst)
        ids = [None] * burst

        def racer(slot):
            barrier.wait()
            ids[slot] = submit(service, burst_seed)

        threads = [
            threading.Thread(target=racer, args=(slot,)) for slot in range(burst)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert runner.wait([runner.poll(ids[0])], timeout=300.0)
        burst_s = time.perf_counter() - start

        stats = runner.stats()
        assert len(set(ids)) == 1
        assert stats["jobs_run"] == 3  # warmup + miss + one burst execution

    miss_speedup = cold_cli_s / warm_miss_s if warm_miss_s > 0 else float("inf")
    hit_speedup = cold_cli_s / warm_hit_s if warm_hit_s > 0 else float("inf")
    print(
        f"\nservice front door @ {rows}x{rows}/{iterations} iters: "
        f"cold CLI {cold_cli_s:.2f}s, warm miss {warm_miss_s:.2f}s "
        f"({miss_speedup:.1f}x), warm hit {warm_hit_s * 1000:.1f}ms "
        f"({hit_speedup:.0f}x), {burst}-wide burst {burst_s:.2f}s "
        f"(coalesced {stats['tickets_coalesced']})"
    )

    # The warm front door must beat cold CLI start-up by the contract margins.
    assert miss_speedup >= 2.0
    assert hit_speedup >= 10.0
