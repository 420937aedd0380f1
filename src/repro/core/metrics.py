"""Solution-quality metrics used in the paper's evaluation.

* ``coloring_accuracy`` — the fraction of edges whose endpoints receive
  different colors, normalized so an exact solution of a 4-colorable graph
  scores 1.0 (Sec. 4: "the normalized number of correctly colored neighbors").
* ``maxcut_accuracy`` — stage-1 cut value over a reference cut.
* ``hamming_distance`` / ``min_hamming_distance`` — normalized disagreement
  between two solutions; the label-invariant variant minimizes over color
  permutations because a proper coloring is only defined up to renaming.
* ``pairwise_hamming_distances`` — the statistic histogrammed in Fig. 5(c).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph, Node
from repro.graphs.partition import Bipartition, cut_size


def coloring_accuracy(graph: Graph, coloring: Coloring) -> float:
    """Fraction of edges with differently colored endpoints (1.0 = proper)."""
    if not coloring.covers(graph):
        raise AnalysisError("coloring does not cover every node of the graph")
    return coloring.accuracy(graph)


def maxcut_accuracy(graph: Graph, partition: Bipartition, reference_cut: Optional[int] = None) -> float:
    """Stage-1 accuracy: achieved cut divided by the reference cut (clipped to 1)."""
    achieved = cut_size(graph, partition)
    if reference_cut is None:
        reference_cut = graph.num_edges
    if reference_cut <= 0:
        return 1.0
    return min(1.0, achieved / reference_cut)


def pairwise_color_distances(
    colors: np.ndarray, num_colors: int, label_invariant: bool = False
) -> np.ndarray:
    """Normalized Hamming distances between all row pairs of a color matrix.

    ``colors`` is ``(R, N)``: one solution per row, columns in a shared node
    order.  Pairs come in :func:`itertools.combinations` order.  Each
    distance is a count of disagreeing nodes divided by ``N``; with
    ``label_invariant`` the count is minimized over every renaming of the
    second row's palette ``[0, num_colors)`` (at most 6 colors), read off
    the pair's ``K x K`` co-occurrence table.
    """
    colors = np.asarray(colors)
    num_rows, num_nodes = colors.shape
    if num_nodes == 0:
        raise AnalysisError("node list must not be empty")
    if num_rows < 2:
        return np.zeros(0, dtype=float)
    if label_invariant:
        num_colors = max(num_colors, int(colors.max()) + 1)
        if num_colors > 6:
            raise AnalysisError("label-invariant Hamming distance supports at most 6 colors")
        # A renaming sends the second row's color j to permutation[j]; it
        # agrees on table[pair, permutation[j], j] nodes.
        permutations = np.array(list(itertools.permutations(range(num_colors))))
        columns = np.arange(num_colors)
        cells_per_pair = num_colors * num_colors
    disagreements = []
    for row in range(num_rows - 1):
        rest = colors[row + 1:]
        if not label_invariant:
            disagreements.append(np.count_nonzero(rest != colors[row], axis=1))
            continue
        # table[pair, i, j]: nodes where this row has color i and the pair's
        # other row has color j.
        offsets = np.arange(len(rest))[:, None] * cells_per_pair
        cells = colors[row].astype(np.int64) * num_colors + rest + offsets
        table = np.bincount(cells.ravel(), minlength=len(rest) * cells_per_pair).reshape(
            len(rest), num_colors, num_colors
        )
        agreements = table[:, permutations, columns].sum(axis=2).max(axis=1)
        disagreements.append(num_nodes - agreements)
    return np.concatenate(disagreements) / num_nodes


def _color_rows(colorings: Sequence[Coloring], nodes: Sequence[Node]) -> np.ndarray:
    return np.array([[coloring.color_of(node) for node in nodes] for coloring in colorings])


def hamming_distance(first: Coloring, second: Coloring, nodes: Sequence[Node]) -> float:
    """Plain normalized Hamming distance over ``nodes`` (no label matching)."""
    if not nodes:
        raise AnalysisError("node list must not be empty")
    return float(pairwise_color_distances(_color_rows([first, second], nodes), 1)[0])


def min_hamming_distance(first: Coloring, second: Coloring, nodes: Sequence[Node]) -> float:
    """Label-invariant Hamming distance: minimized over color permutations.

    Proper colorings are equivalence classes under color renaming, so two
    solutions that differ only by a permutation of the palette are "the same"
    solution and should have distance 0.  The number of colors is small (4 in
    the paper), so exhaustive minimization over ``K!`` permutations is cheap.
    """
    if not nodes:
        raise AnalysisError("node list must not be empty")
    num_colors = max(first.num_colors, second.num_colors)
    rows = _color_rows([first, second], nodes)
    return float(pairwise_color_distances(rows, num_colors, label_invariant=True)[0])


def pairwise_hamming_distances(
    colorings: Sequence[Coloring],
    nodes: Sequence[Node],
    label_invariant: bool = False,
) -> np.ndarray:
    """All pairwise Hamming distances among a set of solutions (Fig. 5(c)).

    The paper histogramms the raw (label-sensitive) distances, which is the
    default here; pass ``label_invariant=True`` for the permutation-minimized
    variant.  The distances are computed on the solutions' color matrix
    (:func:`pairwise_color_distances`).
    """
    if len(colorings) < 2:
        return np.zeros(0, dtype=float)
    num_colors = max(coloring.num_colors for coloring in colorings)
    return pairwise_color_distances(
        _color_rows(colorings, nodes), num_colors, label_invariant=label_invariant
    )


def accuracy_statistics(accuracies: Sequence[float]) -> Dict[str, float]:
    """Best / worst / mean / std summary of per-iteration accuracies."""
    if len(accuracies) == 0:
        raise AnalysisError("accuracy list must not be empty")
    values = np.asarray(accuracies, dtype=float)
    return {
        "best": float(values.max()),
        "worst": float(values.min()),
        "mean": float(values.mean()),
        "std": float(values.std()),
        "count": int(values.size),
    }


def stage_correlation(stage1_accuracies: Sequence[float], final_accuracies: Sequence[float]) -> float:
    """Pearson correlation between stage-1 (max-cut) and final (coloring) accuracy.

    The paper observes a positive correlation (Sec. 4.1); degenerate inputs
    (constant series) return 0.0 rather than NaN.
    """
    stage1 = np.asarray(stage1_accuracies, dtype=float)
    final = np.asarray(final_accuracies, dtype=float)
    if stage1.shape != final.shape or stage1.size < 2:
        raise AnalysisError("need two equal-length series with at least two samples")
    if np.allclose(stage1.std(), 0.0) or np.allclose(final.std(), 0.0):
        return 0.0
    return float(np.corrcoef(stage1, final)[0, 1])


def success_probability(accuracies: Sequence[float], threshold: float = 1.0) -> float:
    """Fraction of iterations reaching at least ``threshold`` accuracy."""
    if len(accuracies) == 0:
        raise AnalysisError("accuracy list must not be empty")
    values = np.asarray(accuracies, dtype=float)
    return float(np.mean(values >= threshold - 1e-12))
