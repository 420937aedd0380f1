"""Figure 5 reproduction: accuracy-per-iteration and Hamming-distance data.

Figure 5 of the paper has three panels per problem size (49, 400, 1024 nodes):

* (a) the 4-coloring accuracy of each of the 40 iterations,
* (b) the 1st-stage max-cut accuracy of each iteration,
* (c) a histogram of the pairwise Hamming distances between the 40 solutions.

``plan`` schedules one solve per problem size as runner jobs and ``reduce``
derives all three series from each decoded solve (the protocol is
:mod:`repro.experiments.protocol`); :func:`render_figure5` prints them in the
layout of the figure.  A multi-worker runner shards the problems across
processes, and a cache-backed runner skips sizes Table 1 already solved under
the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.analysis.reporting import accuracy_series_text, text_histogram
from repro.experiments.problems import FIGURE5_SIZES
from repro.experiments.protocol import (
    CONFIG,
    ITERATIONS,
    PRECISION,
    SCALE,
    SEED,
    Experiment,
    Param,
)
from repro.experiments.table1_stats import plan
from repro.runtime.jobs import Job, merge_requests


@dataclass
class Figure5Series:
    """The Figure 5 data for one problem size."""

    problem_name: str
    num_nodes: int
    coloring_accuracies: np.ndarray
    maxcut_accuracies: np.ndarray
    hamming_distances: np.ndarray
    stage_correlation: float

    @property
    def best_accuracy(self) -> float:
        """Best 4-coloring accuracy across the iterations."""
        return float(self.coloring_accuracies.max())

    @property
    def mean_accuracy(self) -> float:
        """Mean 4-coloring accuracy across the iterations."""
        return float(self.coloring_accuracies.mean())


@dataclass
class Figure5Result:
    """Figure 5 data for every problem size."""

    series: List[Figure5Series] = field(default_factory=list)

    def render(self) -> str:
        """All three panels as text (:func:`render_figure5`)."""
        return render_figure5(self)

    def by_size(self, num_nodes: int) -> Figure5Series:
        """Return the series for a given (requested) problem size."""
        for series in self.series:
            if series.num_nodes == num_nodes or series.problem_name.startswith(str(num_nodes)):
                return series
        raise KeyError(f"no series for problem size {num_nodes}")


PARAMS = (
    Param("sizes", tuple, FIGURE5_SIZES, item=int),
    ITERATIONS,
    SCALE,
    CONFIG,
    SEED,
    PRECISION,
)


def reduce(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> Figure5Result:
    """The three panels' series per size, from each decoded solve."""
    result = Figure5Result()
    for requested_size, solve in zip(params["sizes"], merge_requests(jobs, results)):
        result.series.append(
            Figure5Series(
                problem_name=f"{requested_size}-node",
                num_nodes=solve.graph.num_nodes,
                coloring_accuracies=solve.accuracies,
                maxcut_accuracies=solve.stage1_accuracies,
                hamming_distances=solve.hamming_distances(),
                stage_correlation=solve.stage_correlation(),
            )
        )
    return result


def render_figure5(result: Figure5Result) -> str:
    """Render the Figure 5 data (all three panels) as text."""
    blocks: List[str] = []
    blocks.append("Figure 5(a): 4-coloring accuracy per iteration")
    for series in result.series:
        blocks.append(accuracy_series_text(series.coloring_accuracies, label=f"  {series.problem_name}"))
    blocks.append("")
    blocks.append("Figure 5(b): 1st-stage max-cut accuracy per iteration")
    for series in result.series:
        blocks.append(accuracy_series_text(series.maxcut_accuracies, label=f"  {series.problem_name}"))
    blocks.append("")
    blocks.append("Figure 5(c): pairwise Hamming distances between solutions")
    for series in result.series:
        blocks.append(
            text_histogram(
                series.hamming_distances,
                num_bins=10,
                value_range=(0.0, 1.0),
                label=f"  {series.problem_name}",
            )
        )
    blocks.append("")
    blocks.append("Stage-1 vs final accuracy correlation (positive per the paper):")
    for series in result.series:
        blocks.append(f"  {series.problem_name}: {series.stage_correlation:+.3f}")
    return "\n".join(blocks)


#: Figure 5 plans exactly as Table 1 does (one solve per size, seeded
#: ``seed + size``), so the sizes both show hash to the same jobs and resolve
#: from the memo or cache when both experiments run.
EXPERIMENT = Experiment("fig5", PARAMS, plan, reduce)
