"""Result containers for MSROPM runs.

A full experiment is ``iterations`` independent runs of the machine on one
problem; each run produces a per-stage record (partition, cut accuracy,
phases) and a final coloring.  The containers here keep everything the
analysis layer and the paper's figures need: per-iteration accuracies for
Fig. 5(a)/(b), the solutions themselves for the Hamming histograms of
Fig. 5(c), and the best solution for Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.graphs.partition import Bipartition
from repro.core.metrics import accuracy_statistics, pairwise_hamming_distances, stage_correlation


@dataclass
class StageResult:
    """Outcome of one binary (max-cut) stage of a run.

    Attributes
    ----------
    stage_index:
        1-based stage number.
    partition:
        The bipartition read out after the stage's SHIL lock (of the nodes the
        stage operated on).
    cut_value:
        Number of graph edges cut by this stage's partition (within the node
        set the stage operated on).
    reference_cut:
        Normalization used for the stage accuracy.
    accuracy:
        ``cut_value / reference_cut`` clipped to [0, 1] (the paper's metric).
    raw_accuracy:
        The same ratio *unclipped*: against a heuristic reference (e.g. the
        King's striping cut) the machine can land above 1.0, and hiding that
        would overstate the reference.  ``None`` only for legacy records
        built before the field existed; :attr:`raw` falls back to the
        clipped value then.
    final_phases:
        Oscillator phases at the end of the stage (radians, aligned with the
        machine's node order).
    """

    stage_index: int
    partition: Bipartition
    cut_value: int
    reference_cut: int
    accuracy: float
    raw_accuracy: Optional[float] = None
    final_phases: Optional[np.ndarray] = None

    @property
    def raw(self) -> float:
        """The unclipped accuracy ratio (falls back to the clipped metric)."""
        return self.accuracy if self.raw_accuracy is None else self.raw_accuracy


@dataclass
class IterationResult:
    """Outcome of one complete MSROPM run (all stages).

    Attributes
    ----------
    iteration_index:
        0-based index of the run within the experiment.
    seed:
        RNG seed used for this run (recorded so single runs can be replayed).
    coloring:
        The decoded coloring after the final stage.
    accuracy:
        Fraction of properly colored edges (the paper's metric).
    stage_results:
        Per-stage records, in stage order.
    run_time:
        Modeled wall-clock of the run in seconds (60 ns for 4-coloring).
    """

    iteration_index: int
    seed: int
    coloring: Coloring
    accuracy: float
    stage_results: List[StageResult] = field(default_factory=list)
    run_time: float = 0.0
    #: Full phase trajectory of the run (populated only when the machine is
    #: asked to collect it, e.g. for the Fig. 3 waveform reconstruction).
    trajectory: Optional[object] = None

    @property
    def stage1_accuracy(self) -> float:
        """Accuracy of the first (max-cut) stage, or 1.0 if there was none."""
        if not self.stage_results:
            return 1.0
        return self.stage_results[0].accuracy

    @property
    def stage1_raw_accuracy(self) -> float:
        """Unclipped stage-1 accuracy ratio (the machine's internal number).

        Reported alongside the [0, 1] paper metric: values above 1.0 mean the
        stage beat its heuristic reference cut.
        """
        if not self.stage_results:
            return 1.0
        return self.stage_results[0].raw

    @property
    def is_exact(self) -> bool:
        """``True`` when the run found a proper coloring (accuracy 1.0)."""
        return self.accuracy >= 1.0 - 1e-12


@dataclass
class SolveResult:
    """Aggregate of all iterations of an MSROPM experiment on one problem.

    ``metadata`` records execution provenance — the precision tier
    (``"exact"``/``"throughput"``), the integrated state dtype, and the numpy
    version — so archived results stay auditable; empty on results built by
    code paths that predate the field.
    """

    graph: Graph
    num_colors: int
    iterations: List[IterationResult]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.iterations:
            raise AnalysisError("a solve result needs at least one iteration")

    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        """Number of repeated runs."""
        return len(self.iterations)

    @property
    def best(self) -> IterationResult:
        """The iteration with the highest final accuracy (ties: earliest)."""
        return max(self.iterations, key=lambda item: (item.accuracy, -item.iteration_index))

    @property
    def best_accuracy(self) -> float:
        """Top accuracy across iterations (Table 1's "Top accuracy")."""
        return self.best.accuracy

    @property
    def accuracies(self) -> np.ndarray:
        """Per-iteration final accuracies, in iteration order (Fig. 5(a))."""
        return np.array([item.accuracy for item in self.iterations], dtype=float)

    @property
    def stage1_accuracies(self) -> np.ndarray:
        """Per-iteration stage-1 (max-cut) accuracies (Fig. 5(b))."""
        return np.array([item.stage1_accuracy for item in self.iterations], dtype=float)

    @property
    def stage1_raw_accuracies(self) -> np.ndarray:
        """Per-iteration *unclipped* stage-1 accuracy ratios.

        The machine's internal numbers before the [0, 1] presentation clip;
        may exceed 1.0 against heuristic reference cuts.
        """
        return np.array([item.stage1_raw_accuracy for item in self.iterations], dtype=float)

    @property
    def colorings(self) -> List[Coloring]:
        """Per-iteration decoded colorings."""
        return [item.coloring for item in self.iterations]

    @property
    def num_exact_solutions(self) -> int:
        """How many iterations reached accuracy 1.0."""
        return sum(1 for item in self.iterations if item.is_exact)

    # ------------------------------------------------------------------
    def accuracy_summary(self) -> Dict[str, float]:
        """Best/worst/mean/std of the final accuracies."""
        return accuracy_statistics(self.accuracies)

    def stage1_summary(self) -> Dict[str, float]:
        """Best/worst/mean/std of the stage-1 accuracies."""
        return accuracy_statistics(self.stage1_accuracies)

    def stage_correlation(self) -> float:
        """Correlation between stage-1 and final accuracy across iterations."""
        if self.num_iterations < 2:
            return 0.0
        return stage_correlation(self.stage1_accuracies, self.accuracies)

    def hamming_distances(self, label_invariant: bool = False) -> np.ndarray:
        """Pairwise Hamming distances between the iteration solutions (Fig. 5(c))."""
        return pairwise_hamming_distances(self.colorings, self.graph.nodes, label_invariant=label_invariant)

    def average_run_time(self) -> float:
        """Mean modeled run time per iteration (seconds)."""
        return float(np.mean([item.run_time for item in self.iterations]))
