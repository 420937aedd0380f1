"""Single-stage N-SHIL ring-oscillator Potts machine (the prior-work baseline).

The paper's closest prior work [14] discretizes oscillator phases at N points
in a *single* stage by injecting an N-th order SHIL (3-SHIL for 3-coloring).
This baseline re-implements that architecture on the same phase-domain
substrate so Table 2's accuracy comparison (single-stage N-SHIL vs the
multi-stage 2-SHIL MSROPM) can be reproduced: all oscillators anneal together
once and are then pinned by a single SHIL of order ``num_colors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.core.metrics import coloring_accuracy
from repro.core.results import IterationResult, SolveResult
from repro.dynamics.integrators import euler_maruyama_final
from repro.dynamics.kuramoto import CoupledOscillatorModel
from repro.dynamics.noise import random_initial_phases
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.ising.vector_potts import phases_to_spins
from repro.rng import iteration_seeds, make_rng
from repro.core.stages import partition_coupling_matrix


@dataclass
class SingleStageROPM:
    """A single-stage ROSC Potts machine using an order-N SHIL.

    Parameters
    ----------
    graph:
        Problem graph (one oscillator per node).
    num_colors:
        Number of Potts states; equals the SHIL order (3 in the prior work,
        any value >= 2 here — no power-of-two restriction since there is only
        one stage).
    config:
        Shared circuit/timing configuration.  Only one
        initialization/annealing/locking triple is executed, so the run time
        is half the MSROPM's for the same timing plan.
    """

    graph: Graph
    num_colors: int = 3
    config: Optional[MSROPMConfig] = None

    def __post_init__(self) -> None:
        if self.num_colors < 2:
            raise ConfigurationError(f"num_colors must be at least 2, got {self.num_colors}")
        if self.graph.num_nodes == 0:
            raise ConfigurationError("cannot build a ROPM for an empty graph")
        # The base config validates num_colors as a power of two, which does not
        # apply to the single-stage machine; borrow its circuit parameters only.
        self._config = self.config or MSROPMConfig(num_colors=4)
        self._edge_index = self.graph.edge_index_array()

    # ------------------------------------------------------------------
    @property
    def run_time(self) -> float:
        """Modeled single-run time (one init + anneal + lock triple)."""
        return self._config.timing.total_for_stages(1)

    def run_iteration(self, iteration_index: int = 0, seed: Optional[int] = None) -> IterationResult:
        """One run: anneal the coupled oscillators, lock with the order-N SHIL, read out."""
        config = self._config
        rng = make_rng(seed)
        num = self.graph.num_nodes
        timing = config.timing
        diffusion = config.phase_noise_diffusion

        phases = random_initial_phases(num, rng)
        # Initialization interval: free-running diffusion.
        std = np.sqrt(2.0 * diffusion * timing.initialization)
        if std > 0:
            phases = phases + rng.normal(0.0, std, size=num)

        group_values = np.zeros(num, dtype=int)
        coupling = partition_coupling_matrix(self._edge_index, group_values, num, config.coupling_rate)

        anneal_model = CoupledOscillatorModel(coupling_matrix=coupling, shil_strength=0.0)
        phases = euler_maruyama_final(
            anneal_model, phases, timing.annealing, config.time_step,
            noise_amplitude=diffusion, seed=rng,
        )

        lock_model = CoupledOscillatorModel(
            coupling_matrix=coupling,
            shil_strength=config.shil_rate,
            shil_offset=0.0,
            shil_order=self.num_colors,
            shil_ramp=config.annealing_policy.shil_ramp(0.0, timing.shil_settling),
        )
        phases = euler_maruyama_final(
            lock_model, phases, timing.shil_settling, config.time_step,
            noise_amplitude=diffusion, seed=rng,
        )

        spins = phases_to_spins(phases, self.num_colors)
        coloring = Coloring.from_array(self.graph, spins, self.num_colors)
        accuracy = coloring_accuracy(self.graph, coloring)
        return IterationResult(
            iteration_index=iteration_index,
            seed=int(seed) if seed is not None else -1,
            coloring=coloring,
            accuracy=accuracy,
            stage_results=[],
            run_time=self.run_time,
        )

    def solve(self, iterations: int = 40, seed: Optional[int] = None) -> SolveResult:
        """Run ``iterations`` independent single-stage runs."""
        if iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        seeds = iteration_seeds(seed, iterations)
        results = [
            self.run_iteration(iteration_index=i, seed=seeds[i]) for i in range(iterations)
        ]
        return SolveResult(graph=self.graph, num_colors=self.num_colors, iterations=results)
