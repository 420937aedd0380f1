"""Hot-path benchmark: absolute solve times against the bit-identity floor.

Measures the solver's one stage body on the paper's 40-replica King's-board
solves and prints:

* **Whole-solve timings** per board through ``MSROPM.solve``, with
  the results checked bit for bit against the golden digests of
  ``tests/golden_digests.json`` (recorded before the scalar, legacy and
  throughput stage bodies were folded into one).
* **Irreducible floor**: the trig + noise-stream + sparse-kernel cost of one
  solve, measured directly.  These operations are pinned bit-identical by the
  per-seed reference tests (same libm calls, same RNG draws, same CSR
  kernel), so no
  bit-preserving implementation can beat them; ``floor_utilization`` reports
  how close the solve runs to that floor.
* **Warm-pool dispatch**: a repeat ``JobScheduler.run`` batch against the
  first (pool spin-up, imports, machine memo warm-up), showing warm dispatch
  overhead below the cold-pool baseline.
* **Throughput tier**: the opt-in ``precision="throughput"`` path (batched
  noise stream, float32 state) against the exact tier — the tier that
  *breaks* the bit-identity floor the section above measures.

Environment knobs:

* ``REPRO_HOTPATH_BENCH_BOARDS`` — comma-separated board sizes (default ``5,7``).
* ``REPRO_HOTPATH_BENCH_REPLICAS`` — replicas per solve (default 40, the paper's).
* ``REPRO_HOTPATH_BENCH_REPEATS`` — timing repetitions (default 3, best-of).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import MSROPM, MSROPMConfig
from repro.core.stages import partition_coupling_matrix
from repro.graphs import kings_graph
from repro.rng import ReplicaRNG, make_rng, iteration_seeds
from repro.runtime.jobs import KingsGraphSpec, SolveJob, clear_machine_memo
from repro.runtime.scheduler import JobScheduler
from tests import golden_digests

BENCH_BOARDS = [
    int(item) for item in os.environ.get("REPRO_HOTPATH_BENCH_BOARDS", "5,7").split(",")
]
BENCH_REPLICAS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPLICAS", "40"))
BENCH_REPEATS = int(os.environ.get("REPRO_HOTPATH_BENCH_REPEATS", "3"))
BENCH_SEED = 7


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
                "replicas": BENCH_REPLICAS,
                "solve_s": round(solve_s, 4),
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

    return {"board": f"{rows}x{rows}", "floor_s": round(trig_s + noise_s + kernel_s, 4)}


def _bench_throughput(rows):
    """The throughput tier against the exact tier on one board.

    Accuracy means are checked to stay close to the exact tier's (the
    statistical-equivalence harness is the authoritative check; this is a
    coarse guard).
    """
    graph = kings_graph(rows, rows)
    timings = {}
    for precision in ("exact", "throughput"):
        machine = MSROPM(
            graph, MSROPMConfig(num_colors=4, seed=BENCH_SEED, precision=precision)
        )
        machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)  # warm-up
        timings[precision] = _best_of(
            lambda: machine.solve(iterations=BENCH_REPLICAS, seed=BENCH_SEED)
        )
    (exact_result, exact_s), (tier_result, tier_s) = timings["exact"], timings["throughput"]
    exact_mean = float(exact_result.accuracies.mean())
    mean = float(tier_result.accuracies.mean())
    assert abs(mean - exact_mean) < 0.05, (mean, exact_mean)
    return {
        "board": f"{rows}x{rows}",
        "exact_s": round(exact_s, 4),
        "throughput_s": round(tier_s, 4),
        "speedup_vs_exact": round(exact_s / tier_s, 3),
    }


def _bench_dispatch():
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
    finally:
        scheduler.close()
    return {
        "cold_pool_s": round(cold_s, 4),
        "warm_pool_s": round(warm_s, 4),
        "dispatch_speedup": round(cold_s / warm_s, 3),
    }


def test_bench_hotpath():
    boards = _bench_solves()
    largest = max(BENCH_BOARDS)
    floor = _bench_floor(largest)
    dispatch = _bench_dispatch()
    throughput = _bench_throughput(largest)

    largest_entry = next(entry for entry in boards if entry["board"] == f"{largest}x{largest}")
    floor_utilization = floor["floor_s"] / largest_entry["solve_s"]
    print(f"\nhotpath benchmark ({os.cpu_count()} cpu(s), numpy {np.__version__})")
    for entry in boards:
        print(f"  {entry['board']} x{entry['replicas']}: solve {entry['solve_s']:.3f}s")
    print(
        f"  floor @ {floor['board']}: {floor['floor_s']:.3f}s "
        f"(utilization {floor_utilization:.2f})"
    )
    print(
        f"  dispatch: cold {dispatch['cold_pool_s']:.3f}s vs warm {dispatch['warm_pool_s']:.3f}s "
        f"({dispatch['dispatch_speedup']:.2f}x)"
    )
    print(
        f"  throughput tier @ {throughput['board']}: exact {throughput['exact_s']:.3f}s vs "
        f"{throughput['throughput_s']:.3f}s ({throughput['speedup_vs_exact']:.2f}x)"
    )

    # Warm-pool dispatch overhead must be measurably below the cold pool.
    assert dispatch["warm_pool_s"] < dispatch["cold_pool_s"]
    # The throughput tier must clear the bit-identity floor decisively (the
    # target is >=3x on a quiet box; 2.5 leaves headroom for noisy CI runners).
    assert throughput["speedup_vs_exact"] >= 2.5
