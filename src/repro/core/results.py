"""Result containers for MSROPM runs.

A full experiment is ``iterations`` independent runs of the machine on one
problem; each run produces a per-stage record (partition, cut accuracy,
phases) and a final coloring.  The containers here keep everything the
analysis layer and the paper's figures need: per-iteration accuracies for
Fig. 5(a)/(b), the solutions themselves for the Hamming histograms of
Fig. 5(c), and the best solution for Table 1.

The solutions are held in array form: a run's colors as one integer row and
each stage's side B as one bool row, both in the graph's node order (the
solver's replica rows, or the result codec's decoded arrays, as they are).
Only :attr:`IterationResult.coloring` and :attr:`StageResult.partition`
build label-keyed objects, once each, on first access; the aggregates here
(accuracies, :meth:`SolveResult.color_matrix`, the Hamming distances) and
the codec read the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError, ColoringError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph, Node
from repro.graphs.partition import Bipartition
from repro.core.metrics import accuracy_statistics, pairwise_color_distances, stage_correlation


class StageResult:
    """Outcome of one binary (max-cut) stage of a run.

    The read-out is held as an array: :meth:`from_side_b` takes side B as a
    bool row aligned with a node-label sequence (the solver's replica rows,
    a decoded bitmap), and the label-keyed :attr:`partition` is built from
    it on first access.  The plain constructor takes a ready
    :class:`Bipartition` instead.

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

    def __init__(
        self,
        stage_index: int,
        partition: Optional[Bipartition],
        cut_value: int,
        reference_cut: int,
        accuracy: float,
        raw_accuracy: Optional[float] = None,
        final_phases: Optional[np.ndarray] = None,
    ) -> None:
        self.stage_index = stage_index
        self._partition = partition
        self._side_b: Optional[np.ndarray] = None
        self._nodes: Optional[Sequence[Node]] = None
        self.cut_value = cut_value
        self.reference_cut = reference_cut
        self.accuracy = accuracy
        self.raw_accuracy = raw_accuracy
        self.final_phases = final_phases

    @classmethod
    def from_side_b(
        cls,
        stage_index: int,
        side_b: np.ndarray,
        nodes: Sequence[Node],
        cut_value: int,
        reference_cut: int,
        accuracy: float,
        raw_accuracy: Optional[float] = None,
    ) -> "StageResult":
        """A stage whose side B is the bool row ``side_b`` over ``nodes``.

        ``nodes`` is shared, not copied: every stage of a solve holds the one
        label list its rows are aligned with.
        """
        stage = cls(stage_index, None, cut_value, reference_cut, accuracy, raw_accuracy)
        stage._side_b = side_b
        stage._nodes = nodes
        return stage

    @property
    def partition(self) -> Bipartition:
        """The read-out as a label-keyed :class:`Bipartition` (built once, on demand)."""
        if self._partition is None:
            mask = self._side_b.tolist()
            self._partition = Bipartition(
                side_a=frozenset(compress(self._nodes, [not bit for bit in mask])),
                side_b=frozenset(compress(self._nodes, mask)),
            )
        return self._partition

    def side_b_mask(self, nodes: Sequence[Node]) -> np.ndarray:
        """Side B as a bool array aligned with ``nodes``.

        The stored row itself when it is aligned with ``nodes`` (no
        per-node work); otherwise a membership walk over the partition.
        """
        if self._side_b is not None and (self._nodes is nodes or self._nodes == nodes):
            return self._side_b
        side_b = self.partition.side_b
        return np.fromiter(map(side_b.__contains__, nodes), dtype=bool, count=len(nodes))

    @property
    def raw(self) -> float:
        """The unclipped accuracy ratio (falls back to the clipped metric)."""
        return self.accuracy if self.raw_accuracy is None else self.raw_accuracy

    def __repr__(self) -> str:
        return (
            f"StageResult(stage_index={self.stage_index}, cut_value={self.cut_value}, "
            f"reference_cut={self.reference_cut}, accuracy={self.accuracy!r})"
        )


class IterationResult:
    """Outcome of one complete MSROPM run (all stages).

    The final coloring is held as an integer array: :meth:`from_colors`
    takes one row of colors aligned with a node-label sequence, and the
    label-keyed :attr:`coloring` is built from it on first access.  The
    plain constructor takes a ready :class:`Coloring` instead.

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
    trajectory:
        Full phase trajectory of the run (populated only when the machine is
        asked to collect it, e.g. for the Fig. 3 waveform reconstruction).
    """

    def __init__(
        self,
        iteration_index: int,
        seed: int,
        coloring: Optional[Coloring],
        accuracy: float,
        stage_results: Optional[List[StageResult]] = None,
        run_time: float = 0.0,
        trajectory: Optional[object] = None,
    ) -> None:
        self.iteration_index = iteration_index
        self.seed = seed
        self._coloring = coloring
        self._colors: Optional[np.ndarray] = None
        self._nodes: Optional[Sequence[Node]] = None
        self._num_colors = 0
        self.accuracy = accuracy
        self.stage_results: List[StageResult] = [] if stage_results is None else stage_results
        self.run_time = run_time
        self.trajectory = trajectory

    @classmethod
    def from_colors(
        cls,
        iteration_index: int,
        seed: int,
        colors: np.ndarray,
        nodes: Sequence[Node],
        num_colors: int,
        accuracy: float,
        stage_results: Optional[List[StageResult]] = None,
        run_time: float = 0.0,
        trajectory: Optional[object] = None,
    ) -> "IterationResult":
        """A run whose final colors are the integer row ``colors`` over ``nodes``.

        The colors must already lie in ``[0, num_colors)`` (the solver's
        decode and the result codec guarantee it); ``nodes`` is shared, not
        copied.
        """
        item = cls(iteration_index, seed, None, accuracy, stage_results, run_time, trajectory)
        item._colors = colors
        item._nodes = nodes
        item._num_colors = num_colors
        return item

    @property
    def coloring(self) -> Coloring:
        """The final coloring as a label-keyed :class:`Coloring` (built once, on demand)."""
        if self._coloring is None:
            self._coloring = Coloring(
                assignment=dict(zip(self._nodes, self._colors.tolist())),
                num_colors=self._num_colors,
            )
        return self._coloring

    def color_array(self, nodes: Sequence[Node]) -> np.ndarray:
        """The final colors as an integer array aligned with ``nodes``.

        The stored row itself when it is aligned with ``nodes`` (no
        per-node work); otherwise a lookup through :attr:`coloring`.
        """
        if self._colors is not None and (self._nodes is nodes or self._nodes == nodes):
            return self._colors
        assignment = self.coloring.assignment
        try:
            return np.fromiter(map(assignment.__getitem__, nodes), dtype=np.int64, count=len(nodes))
        except KeyError:
            raise ColoringError("coloring does not cover every node") from None

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

    def __repr__(self) -> str:
        return (
            f"IterationResult(iteration_index={self.iteration_index}, seed={self.seed}, "
            f"accuracy={self.accuracy!r}, stages={len(self.stage_results)})"
        )


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
        """Per-iteration decoded colorings (builds each label-keyed coloring)."""
        return [item.coloring for item in self.iterations]

    @property
    def node_order(self) -> List[Node]:
        """The graph's node labels in order.

        When the iterations' rows are aligned with the graph (a solve's, or
        a decoded payload's), this is the very list object they share, so
        :meth:`IterationResult.color_array` and
        :meth:`StageResult.side_b_mask` recognise it by identity.
        """
        nodes = self.graph.nodes
        shared = self.iterations[0]._nodes
        return shared if shared is not None and shared == nodes else nodes

    def color_matrix(self) -> np.ndarray:
        """The ``(R, N)`` matrix of final colors, rows in iteration order and
        columns in the graph's node order."""
        nodes = self.node_order
        return np.stack([item.color_array(nodes) for item in self.iterations])

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
        return pairwise_color_distances(
            self.color_matrix(), self.num_colors, label_invariant=label_invariant
        )

    def average_run_time(self) -> float:
        """Mean modeled run time per iteration (seconds)."""
        return float(np.mean([item.run_time for item in self.iterations]))
