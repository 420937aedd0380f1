"""Golden result digests: the solver's outputs frozen as SHA-256 fingerprints.

A digest is the SHA-256 of a case's final phases and colorings (plus the
per-stage cut tallies or recorded trajectory where the case has them) for a
fixed seed grid.  The grid covers the workload zoo's King's 5x5 and 7x7, ER,
myciel5, kcolor8 and wmaxcut instances on both precision tiers, a detuned and
a dense-backend configuration, the recorded 4x4 trajectory behind Fig. 3, and
the ROIM and single-stage baselines.

``golden_digests.json`` holds the digests together with an arithmetic probe:
the digest of ``sin``/``cos`` over fixed float64 and float32 arrays.  The
solver's bits depend on the platform's vectorized libm, so the stored digests
are only comparable where the probe matches; elsewhere the tests skip with
that reason (the in-process equivalence tests still run everywhere).

Regenerate the file (only when a change is *meant* to alter results) with::

    PYTHONPATH=src python tests/golden_digests.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable

import numpy as np

from repro.baselines.roim_maxcut import ROIMMaxCut
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.core import MSROPM, MSROPMConfig
from repro.graphs import kings_graph
from repro.workloads.registry import expand_workloads

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

#: Base seed of the zoo instances and of every solve below.
ZOO_SEED = 2025
SOLVE_SEED = 7
#: Replicas per King's solve: the paper's 40 iterations.
KINGS_ITERATIONS = 40
#: Replicas per zoo-instance and baseline solve.
ZOO_ITERATIONS = 8


def arithmetic_probe() -> str:
    """Digest of the libm results the solver's bits depend on."""
    sha = hashlib.sha256()
    for dtype in (np.float64, np.float32):
        grid = np.linspace(-40.0, 40.0, 4099, dtype=dtype)
        sha.update(np.sin(grid).tobytes())
        sha.update(np.cos(grid).tobytes())
    return sha.hexdigest()


def solve_digest(graph, iterations: Iterable) -> str:
    """Digest of a solve's final phases, colorings and per-stage cut tallies."""
    sha = hashlib.sha256()
    for item in iterations:
        colors = np.array([item.coloring.assignment[node] for node in graph.nodes], dtype=np.int64)
        sha.update(colors.tobytes())
        stages = np.array(
            [(stage.cut_value, stage.reference_cut) for stage in item.stage_results],
            dtype=np.int64,
        )
        sha.update(stages.tobytes())
        if item.stage_results:
            final = np.ascontiguousarray(item.stage_results[-1].final_phases, dtype=np.float64)
            sha.update(final.tobytes())
    return sha.hexdigest()


def trajectory_digest(graph, iteration) -> str:
    """Digest of a recorded run: its trajectory, final phases and coloring."""
    sha = hashlib.sha256()
    trajectory = iteration.trajectory
    sha.update(np.ascontiguousarray(trajectory.times, dtype=np.float64).tobytes())
    sha.update(np.ascontiguousarray(trajectory.phases, dtype=np.float64).tobytes())
    sha.update(solve_digest(graph, [iteration]).encode())
    return sha.hexdigest()


def roim_digest(graph, results) -> str:
    """Digest of ROIM runs: each run's partition (node order) and cut value."""
    sha = hashlib.sha256()
    for item in results:
        sides = np.array([node in item.partition.side_a for node in graph.nodes], dtype=np.int64)
        sha.update(sides.tobytes())
        sha.update(np.float64(item.cut_value).tobytes())
    return sha.hexdigest()


def _zoo_instance(family: str, label_prefix: str):
    for instance in expand_workloads([family], base_seed=ZOO_SEED):
        if instance.label.startswith(label_prefix):
            return instance
    raise KeyError(f"{family}/{label_prefix} is not in the zoo's default grid")


def _machine(graph, num_colors: int, precision: str = "exact", **updates) -> MSROPM:
    config = MSROPMConfig(num_colors=num_colors, seed=SOLVE_SEED, precision=precision)
    if updates:
        config = config.with_updates(**updates)
    return MSROPM(graph, config)


def kings_case(rows: int, precision: str) -> Callable[..., str]:
    def run(engine=None) -> str:
        graph = kings_graph(rows, rows)
        result = _machine(graph, 4, precision).solve(
            iterations=KINGS_ITERATIONS, seed=SOLVE_SEED, engine=engine
        )
        return solve_digest(graph, result.iterations)

    return run


def zoo_case(family: str, label_prefix: str, precision: str) -> Callable[..., str]:
    def run(engine=None) -> str:
        instance = _zoo_instance(family, label_prefix)
        graph = instance.build()
        result = _machine(graph, instance.num_colors, precision).solve(
            iterations=ZOO_ITERATIONS, seed=SOLVE_SEED, engine=engine
        )
        return solve_digest(graph, result.iterations)

    return run


def detuned_case(engine=None) -> str:
    graph = kings_graph(5, 5)
    machine = _machine(graph, 4, frequency_detuning_std=0.01)
    result = machine.solve(iterations=ZOO_ITERATIONS, seed=SOLVE_SEED, engine=engine)
    return solve_digest(graph, result.iterations)


def dense_case(engine=None) -> str:
    graph = kings_graph(6, 6)
    machine = _machine(graph, 4, coupling_backend="dense")
    result = machine.solve(iterations=ZOO_ITERATIONS, seed=SOLVE_SEED, engine=engine)
    return solve_digest(graph, result.iterations)


def fig3_trajectory_case() -> str:
    # run_figure3's defaults: a 4x4 board, seed 7, every integrator step kept.
    graph = kings_graph(4, 4)
    machine = MSROPM(graph, MSROPMConfig(num_colors=4, seed=7, record_every=1))
    iteration = machine.run_iteration(iteration_index=0, seed=7, collect_trajectory=True)
    return trajectory_digest(graph, iteration)


def roim_case() -> str:
    graph = kings_graph(5, 5)
    results = ROIMMaxCut(graph, MSROPMConfig(num_colors=4, seed=SOLVE_SEED)).solve(
        iterations=ZOO_ITERATIONS, seed=SOLVE_SEED
    )
    return roim_digest(graph, results)


def single_stage_case() -> str:
    graph = kings_graph(5, 5)
    machine = SingleStageROPM(graph, num_colors=3, config=MSROPMConfig(num_colors=4, seed=SOLVE_SEED))
    result = machine.solve(iterations=ZOO_ITERATIONS, seed=SOLVE_SEED)
    return solve_digest(graph, result.iterations)


def _solve_cases() -> Dict[str, Callable[..., str]]:
    cases: Dict[str, Callable[..., str]] = {}
    for precision in ("exact", "throughput"):
        cases[f"kings5-{precision}"] = kings_case(5, precision)
        cases[f"kings7-{precision}"] = kings_case(7, precision)
        cases[f"er-{precision}"] = zoo_case("er", "er-n24-p0.3", precision)
        cases[f"myciel5-{precision}"] = zoo_case("dimacs", "myciel5", precision)
        cases[f"kcolor8-{precision}"] = zoo_case("kcolor8", "kcolor8", precision)
        cases[f"wmaxcut-{precision}"] = zoo_case("wmaxcut", "wmaxcut-rows5", precision)
    cases["kings5-detuned"] = detuned_case
    cases["kings6-dense"] = dense_case
    return cases


#: Engine-run cases: ``name -> run(engine=None) -> digest``.
SOLVE_CASES = _solve_cases()

#: Cases outside the engines: recorded trajectories and the baselines.
OTHER_CASES: Dict[str, Callable[[], str]] = {
    "fig3-trajectory": fig3_trajectory_case,
    "roim-kings5": roim_case,
    "single-stage-kings5": single_stage_case,
}


def compute_all() -> Dict[str, str]:
    digests = {name: run() for name, run in SOLVE_CASES.items()}
    digests.update({name: run() for name, run in OTHER_CASES.items()})
    return digests


def load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def comparable(golden: Dict[str, object]) -> bool:
    """Whether this platform's libm matches the one ``golden`` was recorded on."""
    return golden["arithmetic_probe"] == arithmetic_probe()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN_PATH.name}")
    args = parser.parse_args()
    payload = {
        "numpy": np.__version__,
        "arithmetic_probe": arithmetic_probe(),
        "digests": compute_all(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {len(payload['digests'])} digests to {GOLDEN_PATH}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
