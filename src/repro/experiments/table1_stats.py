"""Table 1 reproduction: per-problem statistics.

Table 1 of the paper reports, for the 49/400/1024/2116-node problems:
the search-space size (``4^n``), the iteration count (40), the average power
and the top accuracy.  This module plans one solve job per problem, routes the
batch through the experiment runtime (``plan_table1_requests`` ->
:meth:`repro.runtime.runner.ExperimentRunner.solve_many` — sharded across
workers, cached on disk), evaluates the bottom-up power model on the mapped
fabric, and renders the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_power_mw, format_search_space, format_table
from repro.circuit.power import PAPER_POWER_MW, PowerModel
from repro.core.config import MSROPMConfig
from repro.experiments.problems import (
    PAPER_ITERATIONS,
    TABLE1_SIZES,
    default_config,
    scaled_iterations,
    scaled_problem,
    scaled_spec,
)
from repro.runtime.runner import ExperimentRunner, SolveRequest


@dataclass
class Table1Row:
    """One row of Table 1 (one benchmark problem)."""

    problem_name: str
    requested_nodes: int
    simulated_nodes: int
    num_edges: int
    iterations: int
    average_power_w: float
    top_accuracy: float
    mean_accuracy: float
    num_exact: int

    def search_space_text(self, num_colors: int = 4) -> str:
        """The search-space column (``4^n`` for the requested problem size)."""
        return format_search_space(self.requested_nodes, num_colors)


@dataclass
class Table1Result:
    """All rows of the Table 1 reproduction."""

    rows: List[Table1Row] = field(default_factory=list)

    def render(self) -> str:
        """Render the table in the paper's layout (plus measured extras)."""
        headers = (
            "Graph size",
            "Search space",
            "Iterations",
            "Average power",
            "Top accuracy",
            "Mean accuracy",
            "Exact solutions",
        )
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.problem_name,
                    row.search_space_text(),
                    row.iterations,
                    format_power_mw(row.average_power_w),
                    f"{row.top_accuracy:.2f}",
                    f"{row.mean_accuracy:.2f}",
                    row.num_exact,
                ]
            )
        return format_table(headers, table_rows, title="Table 1: statistics from the simulations")

    def paper_power_comparison(self) -> Dict[int, Dict[str, float]]:
        """Modeled vs paper power (mW) for the problem sizes the paper lists."""
        comparison: Dict[int, Dict[str, float]] = {}
        for row in self.rows:
            paper_value = PAPER_POWER_MW.get(row.requested_nodes)
            if paper_value is not None:
                comparison[row.requested_nodes] = {
                    "paper_mw": paper_value,
                    "model_mw": row.average_power_w * 1e3,
                }
        return comparison


def plan_table1_requests(
    sizes: Sequence[int] = TABLE1_SIZES,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    seed: int = 2025,
    precision: Optional[str] = None,
) -> List[SolveRequest]:
    """The solve requests Table 1 schedules: one per problem size.

    Shared with :func:`run_table1` and the suite planner so a suite-level
    warm pass produces byte-identical job hashes to a standalone Table 1 run.
    """
    config = config or default_config(seed)
    if precision is not None:
        config = config.with_updates(precision=precision)
    iterations = iterations if iterations is not None else scaled_iterations(scale)
    return [
        SolveRequest(
            spec=scaled_spec(requested, scale=scale),
            config=config,
            iterations=iterations,
            seed=seed + requested,
        )
        for requested in sizes
    ]


def run_table1(
    sizes: Sequence[int] = TABLE1_SIZES,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    power_model: Optional[PowerModel] = None,
    seed: int = 2025,
    precision: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Table1Result:
    """Run the Table 1 experiment (optionally scaled) and collect the rows.

    ``precision`` selects the tier of the 40-iteration solves (``None``
    keeps the config's, exact by default).
    ``runner`` supplies the execution runtime (worker pool + result cache);
    ``None`` uses a serial, uncached runner, which reproduces the historical
    behaviour exactly.
    """
    runner = runner or ExperimentRunner()
    power_model = power_model or PowerModel()
    requests = plan_table1_requests(
        sizes=sizes,
        iterations=iterations,
        scale=scale,
        config=config,
        seed=seed,
        precision=precision,
    )
    solves = runner.solve_many(requests)
    result = Table1Result()
    for requested, request, solve in zip(sizes, requests, solves):
        graph = solve.graph
        power = power_model.total_power(graph.num_nodes, graph.num_edges)
        result.rows.append(
            Table1Row(
                problem_name=f"{requested}-node",
                requested_nodes=requested,
                simulated_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                iterations=request.iterations,
                average_power_w=power,
                top_accuracy=float(solve.best_accuracy),
                mean_accuracy=float(solve.accuracies.mean()),
                num_exact=solve.num_exact_solutions,
            )
        )
    return result


def power_scaling_series(
    sizes: Sequence[int] = TABLE1_SIZES, power_model: Optional[PowerModel] = None
) -> Dict[int, float]:
    """Modeled average power (W) versus problem size — the Table 1 power column.

    Power is a pure circuit-model quantity (it does not require solving), so
    the full-size fabrics are always evaluated exactly.
    """
    power_model = power_model or PowerModel()
    series: Dict[int, float] = {}
    for requested in sizes:
        problem = scaled_problem(requested, scale=1.0)
        series[requested] = power_model.total_power(problem.graph.num_nodes, problem.graph.num_edges)
    return series
