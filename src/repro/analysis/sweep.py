"""Parameter-sweep harness for design-space exploration and ablations.

Section 2.3 of the paper describes the design tensions (coupling strength vs
oscillation, SHIL strength vs waveform integrity) and Section 4.1 notes the
empirically chosen stage durations.  The sweep harness expands a grid of
configuration overrides into runtime solve jobs — one per valid grid point,
all sharing one content-addressed graph spec — and submits the whole batch
through :meth:`repro.runtime.runner.ExperimentRunner.solve_many`, so sweep
points shard across worker processes and re-entered (or overlapping) grids
resolve from the result cache.  It powers the ablation benchmarks and the
"how was the operating point chosen" analysis in EXPERIMENTS.md.

(The runner import is deferred to call time: :mod:`repro.runtime` serializes
results through :mod:`repro.analysis.results_io`, so a module-level import
here would close an import cycle.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import AnalysisError, ConfigurationError
from repro.analysis.statistics import IterationStatistics
from repro.core.config import MSROPMConfig
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.jobs import GraphSpec
    from repro.runtime.runner import ExperimentRunner

#: Anything the sweep harness can solve on (see repro.runtime.jobs.as_graph_spec).
GraphLike = Union[Graph, "GraphSpec", str, Path]


@dataclass
class SweepPoint:
    """One evaluated configuration of a sweep."""

    overrides: Dict[str, Any]
    statistics: IterationStatistics
    mean_stage1_accuracy: float

    @property
    def mean_accuracy(self) -> float:
        """Mean final accuracy at this sweep point."""
        return self.statistics.mean_accuracy

    @property
    def best_accuracy(self) -> float:
        """Best final accuracy at this sweep point."""
        return self.statistics.best_accuracy


@dataclass
class SweepResult:
    """All evaluated points of one sweep."""

    parameter_names: List[str]
    points: List[SweepPoint]

    def best_point(self) -> SweepPoint:
        """The point with the highest mean accuracy (ties: best accuracy)."""
        if not self.points:
            raise AnalysisError("sweep produced no points")
        return max(self.points, key=lambda p: (p.mean_accuracy, p.best_accuracy))

    def as_rows(self) -> List[List[object]]:
        """Rows suitable for :func:`repro.analysis.reporting.format_table`."""
        rows: List[List[object]] = []
        for point in self.points:
            row: List[object] = [point.overrides.get(name) for name in self.parameter_names]
            row.extend(
                [
                    f"{point.mean_accuracy:.3f}",
                    f"{point.best_accuracy:.3f}",
                    f"{point.mean_stage1_accuracy:.3f}",
                ]
            )
            rows.append(row)
        return rows


def expand_parameter_grid(
    base_config: MSROPMConfig, parameter_grid: Dict[str, Sequence[Any]]
) -> Tuple[List[str], List[Tuple[Dict[str, Any], MSROPMConfig]]]:
    """Expand a parameter grid into its valid ``(overrides, config)`` points.

    Configurations rejected by the config validation (e.g. a coupling strength
    beyond the oscillation-quenching cap) are skipped rather than aborting,
    since probing the edges of the valid region is exactly what a design-space
    exploration does.  Points are produced in the grid's cartesian-product
    order (last parameter fastest), which fixes the sweep's result ordering
    regardless of how the points are later scheduled.
    """
    if not parameter_grid:
        raise AnalysisError("parameter_grid must not be empty")
    names = list(parameter_grid.keys())
    points: List[Tuple[Dict[str, Any], MSROPMConfig]] = []

    def recurse(position: int, chosen: Dict[str, Any]) -> None:
        if position == len(names):
            try:
                config = base_config.with_updates(**chosen)
            except ConfigurationError:
                return
            points.append((dict(chosen), config))
            return
        name = names[position]
        for value in parameter_grid[name]:
            chosen[name] = value
            recurse(position + 1, chosen)
        # An empty value sequence leaves the key unset (and the sweep empty).
        chosen.pop(name, None)

    recurse(0, {})
    return names, points


def sweep_configuration(
    graph: GraphLike,
    base_config: MSROPMConfig,
    parameter_grid: Dict[str, Sequence[Any]],
    iterations: int = 5,
    seed: Optional[int] = 0,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Evaluate the MSROPM over the cartesian product of ``parameter_grid``.

    ``graph`` is anything :func:`repro.runtime.jobs.as_graph_spec` accepts: a
    built :class:`~repro.graphs.graph.Graph`, a content-addressed
    :class:`~repro.runtime.jobs.GraphSpec` (e.g. a workload-zoo instance's
    ``spec`` — the graph is then built in the workers, not here), or a
    ``.col``/``.json`` path.  ``parameter_grid`` maps :class:`MSROPMConfig`
    field names to the values to try; invalid combinations are skipped (see
    :func:`expand_parameter_grid`).

    Every point becomes one runtime solve job and the whole grid is submitted
    as a single batch, so a multi-worker ``runner`` shards the sweep across
    processes and a cache-backed runner skips already-evaluated points
    (``None`` = serial, uncached).
    """
    from repro.runtime.jobs import as_graph_spec
    from repro.runtime.runner import ExperimentRunner, SolveRequest

    if iterations < 1:
        raise AnalysisError("iterations must be at least 1")
    runner = runner or ExperimentRunner()
    names, grid_points = expand_parameter_grid(base_config, parameter_grid)
    # One shared spec: the graph's content hash is computed once for the grid.
    spec = as_graph_spec(graph)
    requests = [
        SolveRequest(spec=spec, config=config, iterations=iterations, seed=seed)
        for _, config in grid_points
    ]
    results = runner.solve_many(requests)
    points = [
        SweepPoint(
            overrides=overrides,
            statistics=IterationStatistics.from_result(result),
            mean_stage1_accuracy=float(result.stage1_accuracies.mean()),
        )
        for (overrides, _), result in zip(grid_points, results)
    ]
    return SweepResult(parameter_names=names, points=points)


def coupling_strength_sweep(
    graph: GraphLike,
    strengths: Sequence[float],
    base_config: Optional[MSROPMConfig] = None,
    iterations: int = 5,
    seed: Optional[int] = 0,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Ablation: solution quality versus B2B coupling strength."""
    base = base_config or MSROPMConfig()
    return sweep_configuration(
        graph,
        base,
        {"coupling_strength": list(strengths)},
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def shil_strength_sweep(
    graph: GraphLike,
    strengths: Sequence[float],
    base_config: Optional[MSROPMConfig] = None,
    iterations: int = 5,
    seed: Optional[int] = 0,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Ablation: solution quality versus SHIL injection strength."""
    base = base_config or MSROPMConfig()
    return sweep_configuration(
        graph,
        base,
        {"shil_strength": list(strengths)},
        iterations=iterations,
        seed=seed,
        runner=runner,
    )


def annealing_time_sweep(
    graph: GraphLike,
    annealing_times: Sequence[float],
    base_config: Optional[MSROPMConfig] = None,
    iterations: int = 5,
    seed: Optional[int] = 0,
    runner: Optional["ExperimentRunner"] = None,
) -> SweepResult:
    """Ablation: solution quality versus the per-stage annealing duration."""
    from repro.circuit.control import TimingPlan

    base = base_config or MSROPMConfig()
    timings = [replace(base.timing, annealing=duration) for duration in annealing_times]
    return sweep_configuration(
        graph, base, {"timing": timings}, iterations=iterations, seed=seed, runner=runner
    )
