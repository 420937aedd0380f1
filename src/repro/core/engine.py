"""Replica execution engines: how ``MSROPM.solve`` runs its iterations.

The paper's headline numbers come from 40 independent iterations per problem.
Those iterations share everything except their random streams, which makes
them replicas of one stochastic process — and replicas can be advanced
together.  This module is the seam between the machine and that choice:

* :class:`SequentialEngine` runs one iteration at a time through
  :meth:`repro.core.machine.MSROPM.run_iteration`.
* :class:`BatchedEngine` (the default) stacks all R iterations into one
  ``(R, N)`` phase array and advances every replica with a single sparse or
  dense product per integrator step.

Both go through :func:`run_batch` and the one stage body of
:class:`repro.core.stages.StageExecutor` — the sequential engine at R=1 per
seed.  Per-replica seeded RNG streams (:class:`repro.rng.ReplicaRNG`) keep the
two bit-identical for the same seeds on the sparse backend, and numerically
equivalent on the dense backend.

Engines are selected by name via ``MSROPMConfig.engine`` (or per call via
``MSROPM.solve(engine=...)``); the batched engine additionally chooses its
coupling representation — CSR for sparse graphs, group-masked GEMMs for dense
ones — from the problem's edge density unless pinned by
``MSROPMConfig.coupling_backend``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.core.results import IterationResult, StageResult
from repro.core.stages import StageExecutor
from repro.dynamics.batched import ThroughputOptions
from repro.dynamics.integrators import Trajectory
from repro.dynamics.noise import perturbed_phases, random_initial_phases
from repro.graphs.graph import Graph
from repro.rng import ReplicaRNG, ThroughputRNG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.machine import MSROPM

#: Graphs below this node count always use the sparse backend (the dense
#: GEMM path only pays off at scale, and small problems keep the
#: bit-identical sparse arithmetic).
DENSE_MIN_NODES = 32

#: Edge density (2E / N(N-1)) at or above which ``auto`` picks the dense backend.
DENSE_DENSITY_THRESHOLD = 0.5


def resolve_coupling_backend(backend: str, graph: Graph) -> str:
    """Resolve an ``auto`` coupling backend to ``sparse`` or ``dense``.

    ``auto`` picks dense only for graphs that are both large enough for GEMMs
    to beat CSR indirection and dense enough that the adjacency structure
    carries no useful sparsity.  All of the paper's King's graphs (density
    <= 0.24) resolve to sparse.
    """
    if backend in ("sparse", "dense"):
        return backend
    if backend != "auto":
        raise ConfigurationError(
            f"coupling_backend must be one of {MSROPMConfig.COUPLING_BACKENDS}, got {backend!r}"
        )
    num_nodes = graph.num_nodes
    if num_nodes < DENSE_MIN_NODES:
        return "sparse"
    density = 2.0 * graph.num_edges / (num_nodes * (num_nodes - 1))
    return "dense" if density >= DENSE_DENSITY_THRESHOLD else "sparse"


class SolverEngine(ABC):
    """Strategy for executing the independent iterations of one solve."""

    #: Engine name as selected by ``MSROPMConfig.engine``.
    name: str = "abstract"

    @abstractmethod
    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        """Run ``len(seeds)`` iterations of ``machine`` and return their results.

        ``seeds[i]`` seeds iteration ``i``; results are returned in iteration
        order, exactly as ``MSROPM.solve`` aggregated them historically.
        """

    def run_range(
        self,
        machine: "MSROPM",
        seeds: Sequence[Optional[int]],
        start_index: int = 0,
    ) -> List[IterationResult]:
        """Run a contiguous replica range of a larger solve.

        ``seeds`` are the per-iteration seeds of replicas ``start_index ..
        start_index + len(seeds) - 1`` of the enclosing solve; the returned
        results carry those *global* iteration indices.  Because every replica
        draws from its own seeded stream, running a solve as several ranges
        and concatenating the results is bit-identical to one full ``run`` —
        this is the entry point the experiment runtime's replica-chunked jobs
        use (:mod:`repro.runtime.jobs`).
        """
        results = self.run(machine, seeds)
        if start_index:
            for offset, item in enumerate(results):
                item.iteration_index = start_index + offset
        return results


class SequentialEngine(SolverEngine):
    """Runs iterations one at a time: the stage body at R=1, once per seed."""

    name = "sequential"

    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        if machine.config.precision != "exact":
            raise ConfigurationError(
                "the sequential engine only implements the exact precision tier; "
                "use engine='batched' for precision='throughput'"
            )
        return [
            machine.run_iteration(iteration_index=index, seed=seed)
            for index, seed in enumerate(seeds)
        ]


class BatchedEngine(SolverEngine):
    """Advances all iterations as one ``(R, N)`` vectorized integration.

    Parameters
    ----------
    coupling_backend:
        ``"sparse"``, ``"dense"``, or ``"auto"``; ``None`` (default) defers to
        the machine's ``MSROPMConfig.coupling_backend``.
    precision:
        ``"exact"``, ``"throughput"``, or ``None`` (default) to defer to the
        machine's ``MSROPMConfig.precision``.  The throughput tier trades the
        bit-identity contract for speed: float32 state and CSR operators, one
        batched noise stream for all replicas (statistically equivalent
        accuracy, enforced by the equivalence harness).  It requires the
        sparse coupling backend (``auto`` resolutions to dense are forced back
        to sparse; an explicit ``"dense"`` pin is an error).
    throughput_options:
        Relaxation switches of the throughput tier
        (:class:`repro.dynamics.batched.ThroughputOptions`); ``None`` means
        the tier defaults.  Ignored on the exact tier.
    """

    name = "batched"

    def __init__(
        self,
        coupling_backend: Optional[str] = None,
        precision: Optional[str] = None,
        throughput_options: Optional[ThroughputOptions] = None,
    ) -> None:
        if coupling_backend is not None and coupling_backend not in MSROPMConfig.COUPLING_BACKENDS:
            raise ConfigurationError(
                f"coupling_backend must be one of {MSROPMConfig.COUPLING_BACKENDS}, "
                f"got {coupling_backend!r}"
            )
        if precision is not None and precision not in MSROPMConfig.PRECISION_NAMES:
            raise ConfigurationError(
                f"precision must be one of {MSROPMConfig.PRECISION_NAMES}, got {precision!r}"
            )
        self.coupling_backend = coupling_backend
        self.precision = precision
        self.throughput_options = throughput_options

    def run(self, machine: "MSROPM", seeds: Sequence[Optional[int]]) -> List[IterationResult]:
        config = machine.config
        precision = self.precision if self.precision is not None else config.precision
        pinned = self.coupling_backend or config.coupling_backend
        backend = resolve_coupling_backend(pinned, machine.graph)
        if precision == "throughput":
            if pinned == "dense":
                raise ConfigurationError(
                    "precision='throughput' runs on the sparse coupling backend; "
                    "remove the explicit coupling_backend='dense' pin"
                )
            # The float32 CSR kernels are sparse-only; an auto resolution to
            # dense falls back to sparse rather than silently switching tiers.
            options = (
                self.throughput_options
                if self.throughput_options is not None
                else ThroughputOptions()
            )
            rng = ThroughputRNG(seeds) if options.batched_rng else ReplicaRNG.from_seeds(seeds)
            executor = machine.batched_executor(
                "sparse", precision="throughput", throughput_options=options
            )
        else:
            rng = ReplicaRNG.from_seeds(seeds)
            executor = machine.batched_executor(backend)
        return run_batch(machine, seeds, rng, executor)


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
    results: List[IterationResult] = []
    for replica in range(num_replicas):
        stage_results = stage_records[replica]
        if stage_results:
            # Stash the final phases on the last stage record for inspection.
            stage_results[-1].final_phases = np.array(phases[replica], dtype=float)
        seed = seeds[replica]
        results.append(
            IterationResult(
                iteration_index=replica,
                seed=int(seed) if seed is not None else -1,
                coloring=machine._decode_coloring(group_values[replica]),
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


def get_engine(engine: Union[str, SolverEngine, None]) -> SolverEngine:
    """Resolve an engine selection (name, instance, or ``None``) to an engine.

    ``None`` maps to the default :class:`BatchedEngine`; strings must be one
    of ``MSROPMConfig.ENGINE_NAMES``.
    """
    if engine is None:
        return BatchedEngine()
    if isinstance(engine, SolverEngine):
        return engine
    if engine == SequentialEngine.name:
        return SequentialEngine()
    if engine == BatchedEngine.name:
        return BatchedEngine()
    raise ConfigurationError(
        f"engine must be one of {MSROPMConfig.ENGINE_NAMES} or a SolverEngine, got {engine!r}"
    )
