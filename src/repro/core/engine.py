"""Replica execution: how ``MSROPM.solve`` runs its iterations.

The paper's headline numbers come from 40 independent iterations per problem.
Those iterations share everything except their random streams, which makes
them replicas of one stochastic process — and replicas can be advanced
together.  :class:`BatchedEngine` stacks all R iterations into one ``(R, N)``
phase array and advances every replica with a single sparse CSR product per
integrator step, through :func:`run_batch` and the one stage body of
:class:`repro.core.stages.StageExecutor`.

``MSROPMConfig.precision`` picks the one RNG and operator set of the solve:

* ``"exact"`` — per-replica seeded streams (:class:`repro.rng.ReplicaRNG`),
  float64 state and CSR operators, so every replica is bit-identical to the
  same seed's :meth:`repro.core.machine.MSROPM.run_iteration` (the R=1
  reference);
* ``"throughput"`` — one batched stream for all replicas
  (:class:`repro.rng.ThroughputRNG`), float32 state and CSR operators,
  statistically equivalent accuracy (enforced by the equivalence harness).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.results import IterationResult, StageResult
from repro.core.stages import StageExecutor
from repro.dynamics.integrators import Trajectory
from repro.dynamics.noise import perturbed_phases, random_initial_phases
from repro.rng import ReplicaRNG, ThroughputRNG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.machine import MSROPM


class BatchedEngine:
    """Advances all iterations of a solve as one ``(R, N)`` vectorized integration."""

    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        """Run ``len(seeds)`` iterations of ``machine`` and return their results.

        ``seeds[i]`` seeds iteration ``i``; results are returned in iteration
        order.  The machine's precision tier picks the RNG and the executor.
        """
        precision = machine.config.precision
        rng = ThroughputRNG(seeds) if precision == "throughput" else ReplicaRNG.from_seeds(seeds)
        return run_batch(machine, seeds, rng, machine.batched_executor(precision))


def run_batch(
    machine: "MSROPM",
    seeds: Sequence[Optional[int]],
    rng,
    executor: StageExecutor,
) -> List[IterationResult]:
    """Run ``len(seeds)`` iterations of ``machine`` as one ``(R, N)`` batch.

    ``rng`` draws the batch's randomness (a :class:`repro.rng.ReplicaRNG`
    over ``seeds`` keeps every replica on its own stream) and ``executor``
    runs the stages.  When the executor collects trajectories, each result
    carries its replica's ``(T, N)`` slice of the recorded trajectory.
    """
    config = machine.config
    num_replicas = len(seeds)
    num = machine.num_oscillators
    phases = random_initial_phases(num, rng)  # (R, N)
    group_values = np.zeros((num_replicas, num), dtype=int)
    stage_records: List[List[StageResult]] = [[] for _ in range(num_replicas)]
    trajectory: Optional[Trajectory] = None
    time = 0.0

    for stage_index in range(1, config.num_stages + 1):
        if stage_index > 1:
            # Compute-in-memory hand-off: phases persist between stages but
            # pick up a little jitter while couplings and SHIL are off.
            phases = perturbed_phases(phases, config.stage2_reinit_jitter, rng)
        phases, bits, stage_trajectory = executor.run_stage(
            stage_index, phases, group_values, rng, start_time=time
        )
        if stage_trajectory is not None:
            trajectory = (
                stage_trajectory if trajectory is None else trajectory.concatenate(stage_trajectory)
            )
        time += (
            config.timing.initialization
            + config.timing.annealing
            + config.timing.shil_settling
        )
        for replica, record in enumerate(
            machine._score_stage_batch(stage_index, bits, group_values)
        ):
            stage_records[replica].append(record)
        group_values = group_values + bits * (2 ** (stage_index - 1))

    accuracies = machine._batch_coloring_accuracies(group_values)
    # Colors stay one small-integer row per replica (uint8 up to 256 colors);
    # results build their Coloring only on first access.
    colors = group_values.astype(np.min_scalar_type(config.num_colors - 1))
    results: List[IterationResult] = []
    for replica in range(num_replicas):
        stage_results = stage_records[replica]
        if stage_results:
            # Stash the final phases on the last stage record for inspection.
            stage_results[-1].final_phases = np.array(phases[replica], dtype=float)
        seed = seeds[replica]
        results.append(
            IterationResult.from_colors(
                iteration_index=replica,
                seed=int(seed) if seed is not None else -1,
                colors=colors[replica],
                nodes=machine._nodes,
                num_colors=config.num_colors,
                accuracy=accuracies[replica],
                stage_results=stage_results,
                run_time=config.total_run_time,
                trajectory=(
                    Trajectory(times=trajectory.times, phases=trajectory.phases[:, replica])
                    if trajectory is not None
                    else None
                ),
            )
        )
    return results
