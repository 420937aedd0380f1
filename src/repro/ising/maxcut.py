"""Max-cut problem utilities.

Stage 1 of the MSROPM solves a max-cut on the problem graph (the paper's
"2-partitioning"); stage 2 solves one max-cut per partition.  This module
defines the max-cut objective on top of :class:`Bipartition`, its relation to
the antiferromagnetic Ising energy, and reference cut values for the
benchmark King's graphs (derived from the known proper 4-coloring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.graphs.graph import Graph, Node
from repro.graphs.partition import Bipartition
from repro.ising.ising_model import IsingProblem, labels_to_spins, spins_to_labels
from repro.rng import SeedLike, make_rng


@dataclass
class MaxCutProblem:
    """A max-cut instance with optional per-edge weights (default weight 1)."""

    graph: Graph
    weights: Optional[Dict[Tuple[Node, Node], float]] = None

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``(u, v)``."""
        if not self.graph.has_edge(u, v):
            raise ReproError(f"({u!r}, {v!r}) is not an edge of the graph")
        if self.weights is None:
            return 1.0
        if (u, v) in self.weights:
            return self.weights[(u, v)]
        if (v, u) in self.weights:
            return self.weights[(v, u)]
        return 1.0

    def total_weight(self) -> float:
        """Return the sum of all edge weights (an upper bound on any cut)."""
        return sum(self.weight(u, v) for u, v in self.graph.edges())

    def cut_value(self, partition: Bipartition) -> float:
        """Return the total weight of edges crossing ``partition``."""
        if not partition.covers(self.graph):
            raise ReproError("partition does not cover the problem graph")
        value = 0.0
        for u, v in self.graph.edges():
            if partition.side_of(u) != partition.side_of(v):
                value += self.weight(u, v)
        return value

    def cut_value_from_spins(self, spins: Mapping[Node, int]) -> float:
        """Cut value of a +/-1 spin assignment (spins disagree across the cut)."""
        labels = spins_to_labels(spins)
        return self.cut_value(Bipartition.from_labels(labels))

    def to_ising(self, strength: float = 1.0) -> IsingProblem:
        """Return the anti-aligning Ising problem whose ground state is the max-cut.

        Under Eq. (1)'s sign convention the anti-aligning coupling is
        ``J_ij = +strength * w_ij``, and the Ising energy satisfies
        ``H(s) = strength * (W - 2 * cut(s))`` where ``W`` is the total edge
        weight, so minimizing the energy maximizes the cut.
        """
        if strength <= 0:
            raise ReproError(f"strength must be positive, got {strength}")
        couplings = {
            (u, v): strength * self.weight(u, v) for u, v in self.graph.edges()
        }
        return IsingProblem(graph=self.graph, couplings=couplings, default_coupling=strength)

    def accuracy(self, partition: Bipartition, reference_cut: Optional[float] = None) -> float:
        """Return the raw ratio ``cut / reference_cut`` (may exceed 1.0).

        When ``reference_cut`` is omitted the total edge weight is used, which
        is exact for bipartite graphs and a safe upper bound otherwise.  When a
        heuristic reference is supplied, a better-than-reference cut yields a
        ratio above 1.0 — it is reported as-is so callers can see it; display
        code clips via :func:`repro.analysis.reporting.present_accuracy`.
        """
        reference = reference_cut if reference_cut is not None else self.total_weight()
        if reference <= 0:
            return 1.0
        return float(self.cut_value(partition) / reference)


def cut_from_ising_energy(problem: MaxCutProblem, energy: float, strength: float = 1.0) -> float:
    """Recover the cut value from the anti-aligning Ising energy.

    Uses ``H(s) = strength * (W - 2 * cut)`` where ``W`` is the total weight
    (see :meth:`MaxCutProblem.to_ising`).
    """
    if strength <= 0:
        raise ReproError(f"strength must be positive, got {strength}")
    total = problem.total_weight()
    return (total - energy / strength) / 2.0


def kings_graph_reference_cut(rows: int, cols: int) -> int:
    """Return the stage-1 reference cut value for a ``rows x cols`` King's graph.

    The reference is the cut induced by the canonical 4-coloring's high bit
    (colors {0,1} vs {2,3}), i.e. a row-parity striping.  It is the cut the
    divide-and-color decomposition needs stage 1 to find so that the two
    residual subproblems are bipartite, and serves as the normalization for
    the paper's stage-1 accuracy plots.

    The striping cuts exactly the edges between adjacent rows: per pair of
    rows, ``cols`` vertical and ``2 * (cols - 1)`` diagonal ones.
    """
    if rows <= 0 or cols <= 0:
        raise ReproError(f"rows and cols must be positive, got {rows}x{cols}")
    return (rows - 1) * (3 * cols - 2)


def random_partition(graph: Graph, seed: SeedLike = None) -> Bipartition:
    """Return a uniformly random bipartition of ``graph``."""
    rng = make_rng(seed)
    labels = {node: int(rng.integers(0, 2)) for node in graph.nodes}
    return Bipartition.from_labels(labels)


def greedy_local_improvement(problem: MaxCutProblem, partition: Bipartition, max_passes: int = 10) -> Bipartition:
    """One-exchange local search: move nodes across the cut while it improves.

    Used by the baselines as a cheap polish step and by tests as an
    independent check that the oscillator machine's cuts are locally optimal
    or near-optimal.
    """
    if max_passes <= 0:
        raise ReproError(f"max_passes must be positive, got {max_passes}")
    labels = partition.labels()
    for node in problem.graph.nodes:
        labels.setdefault(node, 0)
    improved = True
    passes = 0
    while improved and passes < max_passes:
        improved = False
        passes += 1
        for node in problem.graph.nodes:
            gain = 0.0
            for neighbor in problem.graph.neighbors(node):
                weight = problem.weight(node, neighbor)
                if labels[neighbor] == labels[node]:
                    gain += weight  # flipping node would now cut this edge
                else:
                    gain -= weight  # flipping node would un-cut this edge
            if gain > 0:
                labels[node] = 1 - labels[node]
                improved = True
    return Bipartition.from_labels(labels)
