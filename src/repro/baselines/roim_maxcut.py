"""Ring-oscillator Ising machine (ROIM) max-cut baseline.

The coupled-ROSC Ising machines the paper compares against ([7], [8]) solve
max-cut: negatively coupled oscillators self-anneal and a 2nd-order SHIL
binarizes the phases into the two Ising spin values.  This is exactly one
stage of the MSROPM, so the baseline reuses the same dynamics substrate with a
single binary stage and returns cut values rather than colorings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.core.stages import StageExecutor
from repro.dynamics.noise import random_initial_phases
from repro.graphs.graph import Graph
from repro.graphs.partition import Bipartition, cut_size
from repro.ising.maxcut import MaxCutProblem
from repro.rng import ReplicaRNG, iteration_seeds, make_rng


@dataclass
class ROIMCutResult:
    """Result of one ROIM max-cut run."""

    partition: Bipartition
    cut_value: float
    accuracy: float
    run_time: float


@dataclass
class ROIMMaxCut:
    """A single-stage ring-oscillator Ising machine solving max-cut.

    Parameters
    ----------
    graph:
        Problem graph.
    config:
        Circuit/timing configuration shared with the MSROPM.
    reference_cut:
        Normalization for the reported accuracy; defaults to the total edge
        weight (exact for bipartite graphs, an upper bound otherwise).
    weights:
        Optional per-edge weights of the max-cut objective (default: unit
        weights).  The phase dynamics are weight-agnostic — like the real
        hardware, the fabric couples every edge identically — but cut values
        and accuracies are scored against the weighted objective.
    """

    graph: Graph
    config: Optional[MSROPMConfig] = None
    reference_cut: Optional[float] = None
    weights: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.graph.num_nodes == 0:
            raise ConfigurationError("cannot build a ROIM for an empty graph")
        self._config = self.config or MSROPMConfig(num_colors=4)
        self._problem = MaxCutProblem(self.graph, weights=self.weights)
        self._reference = (
            self.reference_cut if self.reference_cut is not None else self._problem.total_weight()
        )
        # No frequency detuning: the baseline models ideal oscillators.
        self._executor = StageExecutor(
            config=self._config,
            edge_index=self.graph.edge_index_array(),
            num_oscillators=self.graph.num_nodes,
        )

    @property
    def run_time(self) -> float:
        """Modeled single-run time (one binary stage)."""
        return self._config.timing.total_for_stages(1)

    def run_iteration(self, seed: Optional[int] = None) -> ROIMCutResult:
        """One annealing + SHIL binarization run; returns the resulting cut."""
        return self._run([seed])[0]

    def solve(self, iterations: int = 40, seed: Optional[int] = None) -> List[ROIMCutResult]:
        """Run ``iterations`` independent runs (one replica batch) and return all results.

        Every run draws from its own seeded stream, so the results are
        bit-identical to calling :meth:`run_iteration` once per seed.
        """
        if iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        return self._run(iteration_seeds(seed, iterations))

    def _run(self, seeds: Sequence[Optional[int]]) -> List[ROIMCutResult]:
        """Run one stage-1 replica per seed through the exact-tier stage body."""
        rng = ReplicaRNG([make_rng(seed) for seed in seeds])
        num = self.graph.num_nodes
        phases = random_initial_phases(num, rng)
        _, bits, _ = self._executor.run_stage(
            1, phases, np.zeros((len(seeds), num), dtype=int), rng
        )
        return [self._cut_result(row) for row in bits]

    def _cut_result(self, bits: np.ndarray) -> ROIMCutResult:
        labels = {node: int(bit) for node, bit in zip(self.graph.nodes, bits)}
        partition = Bipartition.from_labels(labels)
        cut_value = self._problem.cut_value(partition)
        # Raw ratio, deliberately unclipped: against a heuristic reference
        # (e.g. the King's striping cut) the machine can land above 1.0, and
        # hiding that would overstate the reference.  Display code clips via
        # repro.analysis.reporting.present_accuracy.
        accuracy = cut_value / self._reference if self._reference > 0 else 1.0
        return ROIMCutResult(
            partition=partition, cut_value=cut_value, accuracy=accuracy, run_time=self.run_time
        )

    def best_of(self, iterations: int = 40, seed: Optional[int] = None) -> ROIMCutResult:
        """Return the best-cut result among ``iterations`` runs."""
        results = self.solve(iterations=iterations, seed=seed)
        return max(results, key=lambda item: item.cut_value)
