"""Hot-path benchmark: absolute solve times against the bit-identity floor.

Measures the solver's one stage body on the paper's 40-replica King's-board
solves and writes a ``BENCH_hotpath.json`` payload:

* **Whole-solve timings** per board through the default batched engine, with
  the results checked bit for bit against the golden digests of
  ``tests/golden_digests.json`` (recorded before the scalar, legacy and
  throughput stage bodies were folded into one).
* **Irreducible floor**: the trig + noise-stream + sparse-kernel cost of one
  solve, measured directly.  These operations are pinned bit-identical by the
  engine tests (same libm calls, same RNG draws, same CSR kernel), so no
  bit-preserving implementation can beat them; ``floor_utilization`` reports
  how close the solve runs to that floor.
* **Warm-pool dispatch**: a repeat ``JobScheduler.run`` batch against the
  first (pool spin-up, imports, machine memo warm-up), showing warm dispatch
  overhead below the cold-pool baseline.
* **Throughput tier**: the opt-in ``precision="throughput"`` path (batched
  noise stream, float32 state, optional fused trig) against the exact tier —
  the tier that *breaks* the bit-identity floor the section above measures.
  Each relaxation is also timed individually, so the whole-tier speedup is
  decomposable into its RNG / float32 / trig contributions.

Environment knobs:

* ``REPRO_HOTPATH_BENCH_BOARDS`` — comma-separated board sizes (default ``5,7``).
* ``REPRO_HOTPATH_BENCH_REPLICAS`` — replicas per solve (default 40, the paper's).
* ``REPRO_HOTPATH_BENCH_REPEATS`` — timing repetitions (default 3, best-of).
* ``REPRO_BENCH_OUT`` — output path; unset, the payload goes to the test's
  temporary directory, so a test run never rewrites a tracked file.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.core import MSROPM, BatchedEngine, MSROPMConfig
from repro.core.stages import partition_coupling_matrix
from repro.graphs import kings_graph
from repro.rng import ReplicaRNG, make_rng, iteration_seeds
from repro.runtime.atomic import write_atomic_json
from repro.runtime.jobs import KingsGraphSpec, SolveJob, clear_machine_memo
from repro.runtime.scheduler import JobScheduler
from tests import golden_digests

BENCH_BOARDS = [
    int(item) for item in os.environ.get("REPRO_HOTPATH_BENCH_BOARDS", "5,7").split(",")
]
BENCH_REPLICAS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPLICAS", "40"))
BENCH_REPEATS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPEATS", "3"))
BENCH_SEED = 7


def _bench_out(tmp_path: Path) -> Path:
    configured = os.environ.get("REPRO_BENCH_OUT")
    return Path(configured) if configured else tmp_path / "BENCH_hotpath.json"


def _best_of(callable_, repeats=BENCH_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return result, best


def _golden_digest(rows):
    """The golden digest of this board's solve, when the grid recorded one.

    The golden King's cases are exactly this benchmark's default solves (the
    paper's config, seed 7, 40 replicas); other board sizes or replica
    counts, and platforms whose libm differs from the recording's, have none.
    """
    golden = golden_digests.load_golden()
    if not golden_digests.comparable(golden):
        return None
    if BENCH_REPLICAS != golden_digests.KINGS_ITERATIONS or BENCH_SEED != golden_digests.SOLVE_SEED:
        return None
    return golden["digests"].get(f"kings{rows}-exact")


def _steps(config):
    """Integrated steps of one solve (both stages' annealing + lock intervals)."""
    per_stage = int(np.ceil(config.timing.annealing / config.time_step)) + int(
        np.ceil(config.timing.shil_settling / config.time_step)
    )
    return config.num_stages * per_stage


def _bench_solves():
    boards = []
    for rows in BENCH_BOARDS:
        graph = kings_graph(rows, rows)
        machine = MSROPM(graph, MSROPMConfig(num_colors=4, seed=BENCH_SEED))
        machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)  # warm-up
        result, solve_s = _best_of(
            lambda: machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)
        )
        golden = _golden_digest(rows)
        if golden is not None:
            assert golden_digests.solve_digest(graph, result.iterations) == golden
        boards.append(
            {
                "board": f"{rows}x{rows}",
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "replicas": BENCH_REPLICAS,
                "solve_s": round(solve_s, 4),
                "golden_digest_checked": golden is not None,
            }
        )
    return boards


def _bench_floor(rows):
    """Directly measure the bit-identity-pinned cost floor of one solve.

    Every bit-preserving implementation must execute, per integration step,
    ``sin``/``cos`` over the ``(R, N)`` phase array, consume the per-replica
    Gaussian noise stream, and run the CSR coupling kernel.  Timing those
    three alone bounds the whole-solve speedup any hot-path work can reach.
    """
    graph = kings_graph(rows, rows)
    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    steps = _steps(config)
    num = graph.num_nodes
    phases = make_rng(1).uniform(0, 2 * np.pi, size=(BENCH_REPLICAS, num))
    sin_buf = np.empty_like(phases)
    cos_buf = np.empty_like(phases)

    start = time.perf_counter()
    for _ in range(steps):
        np.sin(phases, out=sin_buf)
        np.cos(phases, out=cos_buf)
    trig_s = time.perf_counter() - start

    rng = ReplicaRNG.from_seeds(iteration_seeds(BENCH_SEED, BENCH_REPLICAS))
    start = time.perf_counter()
    drawn = 0
    while drawn < steps:
        chunk = min(500, steps - drawn)
        rng.noise_block(chunk, phases.shape)
        drawn += chunk
    noise_s = time.perf_counter() - start

    matrix = partition_coupling_matrix(
        graph.edge_index_array(), np.zeros(num, dtype=int), num, config.coupling_rate
    )
    from repro.dynamics.batched import FastSharedCoupling

    operator = FastSharedCoupling(matrix)
    start = time.perf_counter()
    for _ in range(steps):
        operator.apply_pair(cos_buf, sin_buf)
    kernel_s = time.perf_counter() - start

    return {
        "board": f"{rows}x{rows}",
        "steps": steps,
        "trig_s": round(trig_s, 4),
        "noise_stream_s": round(noise_s, 4),
        "coupling_kernel_s": round(kernel_s, 4),
        "floor_s": round(trig_s + noise_s + kernel_s, 4),
        "note": (
            "sin/cos per step, the per-replica RNG noise stream, and the CSR "
            "coupling kernel are pinned bit-identical to the sequential "
            "reference; their sum bounds any bit-preserving solve time from below"
        ),
    }


def _bench_throughput(rows):
    """The throughput tier against the exact tier, per relaxation.

    Each variant runs the full whole-solve loop; ``throughput`` is the tier's
    default relaxation set, and the *_only variants isolate one relaxation
    each, so the contribution of the batched RNG stream, the float32 state
    and the fused trig is measured rather than inferred.  Accuracy means are
    checked to stay close to the exact tier's (the statistical-equivalence
    harness is the authoritative check; this is a coarse guard).
    """
    from repro.dynamics.batched import ThroughputOptions

    graph = kings_graph(rows, rows)
    config = MSROPMConfig(num_colors=4, seed=BENCH_SEED)
    exact_machine = MSROPM(graph, config)
    exact_machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)  # warm-up
    exact_result, exact_s = _best_of(
        lambda: exact_machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)
    )
    exact_mean = float(exact_result.accuracies.mean())

    variants = (
        ("throughput", ThroughputOptions()),
        ("batched_rng_only", ThroughputOptions(float32_state=False)),
        ("float32_only", ThroughputOptions(batched_rng=False)),
        ("fused_trig", ThroughputOptions(fused_shil=True)),
    )
    entries = {}
    for name, options in variants:
        machine = MSROPM(
            graph, MSROPMConfig(num_colors=4, seed=BENCH_SEED, precision="throughput")
        )
        engine = BatchedEngine(precision="throughput", throughput_options=options)
        machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED, engine=engine)  # warm-up
        result, tier_s = _best_of(
            lambda: machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED, engine=engine)
        )
        mean = float(result.accuracies.mean())
        assert abs(mean - exact_mean) < 0.05, (name, mean, exact_mean)
        entries[name] = {
            "time_s": round(tier_s, 4),
            "speedup_vs_exact": round(exact_s / tier_s, 3),
            "mean_accuracy": round(mean, 4),
            "options": {
                "batched_rng": options.batched_rng,
                "float32_state": options.float32_state,
                "fused_shil": options.fused_shil,
            },
        }
    return {
        "board": f"{rows}x{rows}",
        "replicas": BENCH_REPLICAS,
        "exact_s": round(exact_s, 4),
        "exact_mean_accuracy": round(exact_mean, 4),
        "variants": entries,
        "note": (
            "precision='throughput' trades bit-identity for speed; accuracy "
            "equivalence is enforced statistically by 'msropm equivalence'. "
            "The *_only variants isolate one relaxation each; fused_trig adds "
            "the fused-SHIL double-angle form on top of the defaults (off by "
            "default — measured slower than direct float32 sin on this libm)"
        ),
    }


def _bench_dispatch(tmp_path):
    """Cold pool spin-up vs warm-pool dispatch for a repeat job batch.

    The jobs use a reduced-timing configuration so the batch wall time is
    dominated by dispatch overhead — pool spin-up, worker imports, job
    pickling, machine construction — rather than integration work; the warm
    batch keeps the pool and the per-worker machine memo from the cold one.
    """
    from repro.core.config import TimingPlan
    from repro.units import ns

    clear_machine_memo()
    config = MSROPMConfig(
        num_colors=4,
        seed=BENCH_SEED,
        timing=TimingPlan(initialization=ns(1.0), annealing=ns(4.0), shil_settling=ns(2.0)),
        time_step=0.05e-9,
    )
    spec = KingsGraphSpec(5, 5)

    def jobs(offset):
        return [
            SolveJob(spec=spec, config=config, seed=offset + index, total_iterations=4)
            for index in range(6)
        ]

    scheduler = JobScheduler(workers=2)
    try:
        start = time.perf_counter()
        scheduler.run(jobs(0))
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        scheduler.run(jobs(100))
        warm_s = time.perf_counter() - start
        thread_caps = dict(scheduler.thread_caps)
        start_method = scheduler.start_method
    finally:
        scheduler.close()
    return {
        "jobs_per_batch": 6,
        "workers": 2,
        "cold_pool_s": round(cold_s, 4),
        "warm_pool_s": round(warm_s, 4),
        "dispatch_speedup": round(cold_s / warm_s, 3),
        "start_method": start_method,
        "worker_thread_caps": thread_caps,
    }


def test_bench_hotpath(tmp_path):
    boards = _bench_solves()
    largest = max(BENCH_BOARDS)
    floor = _bench_floor(largest)
    dispatch = _bench_dispatch(tmp_path)
    throughput = _bench_throughput(largest)

    largest_entry = next(entry for entry in boards if entry["board"] == f"{largest}x{largest}")
    payload = {
        "benchmark": "hotpath",
        "replicas": BENCH_REPLICAS,
        "repeats": BENCH_REPEATS,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "solve": boards,
        "floor": floor,
        "dispatch": dispatch,
        "throughput": throughput,
        "floor_utilization": round(floor["floor_s"] / largest_entry["solve_s"], 3),
        "note": (
            "single-process solve times of the one (R, N) stage body, checked "
            "bit-identical against the golden digests; floor_utilization is how "
            "close the solve runs to the measured bit-identity floor"
        ),
    }
    bench_out = _bench_out(tmp_path)
    write_atomic_json(bench_out, payload, indent=2)
    print(f"\nhotpath benchmark -> {bench_out}")
    for entry in boards:
        print(f"  {entry['board']} x{entry['replicas']}: solve {entry['solve_s']:.3f}s")
    print(
        f"  floor @ {floor['board']}: {floor['floor_s']:.3f}s "
        f"(utilization {payload['floor_utilization']:.2f})"
    )
    print(
        f"  dispatch: cold {dispatch['cold_pool_s']:.3f}s vs warm {dispatch['warm_pool_s']:.3f}s "
        f"({dispatch['dispatch_speedup']:.2f}x)"
    )
    tier = throughput["variants"]["throughput"]
    print(
        f"  throughput tier @ {throughput['board']}: exact {throughput['exact_s']:.3f}s vs "
        f"{tier['time_s']:.3f}s ({tier['speedup_vs_exact']:.2f}x); "
        f"rng-only {throughput['variants']['batched_rng_only']['speedup_vs_exact']:.2f}x, "
        f"f32-only {throughput['variants']['float32_only']['speedup_vs_exact']:.2f}x, "
        f"fused-trig {throughput['variants']['fused_trig']['speedup_vs_exact']:.2f}x"
    )

    # Warm-pool dispatch overhead must be measurably below the cold pool.
    assert dispatch["warm_pool_s"] < dispatch["cold_pool_s"]
    # The throughput tier must clear the bit-identity floor decisively (the
    # target is >=3x on a quiet box; 2.5 leaves headroom for noisy CI runners)
    # and each individual relaxation must not lose to the exact path.
    assert tier["speedup_vs_exact"] >= 2.5
    for name in ("batched_rng_only", "float32_only", "fused_trig"):
        assert throughput["variants"][name]["speedup_vs_exact"] >= 1.0, name
