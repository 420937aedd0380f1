"""Table 1 reproduction: per-problem statistics.

Table 1 of the paper reports, for the 49/400/1024/2116-node problems:
the search-space size (``4^n``), the iteration count (40), the average power
and the top accuracy.  ``plan`` schedules one solve per problem as runner
jobs (sharded across workers, cached on disk); ``reduce`` reads each board's
size from its decoded solve, evaluates the bottom-up power model on it, and
renders the same rows (the protocol is :mod:`repro.experiments.protocol`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.reporting import format_power_mw, format_search_space, format_table
from repro.circuit.power import PAPER_POWER_MW, PowerModel
from repro.experiments.problems import (
    TABLE1_SIZES,
    default_config,
    scaled_iterations,
    scaled_spec,
)
from repro.experiments.protocol import (
    CONFIG,
    ITERATIONS,
    PRECISION,
    SCALE,
    SEED,
    Experiment,
    Param,
)
from repro.runtime.jobs import Job, merge_requests
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


PARAMS = (
    Param("sizes", tuple, TABLE1_SIZES, item=int),
    ITERATIONS,
    SCALE,
    CONFIG,
    Param("power_model", PowerModel),
    SEED,
    PRECISION,
)


def plan(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """One solve per problem size, seeded ``seed + size``, chunked by ``runner``.

    Figure 5 plans its sizes with this same function, so the sizes both
    experiments show hash to the same jobs and a suite solves them once.
    """
    seed, scale = params["seed"], params["scale"]
    config = params["config"] or default_config(seed)
    if params["precision"] is not None:
        config = config.with_updates(precision=params["precision"])
    iterations = params["iterations"]
    if iterations is None:
        iterations = scaled_iterations(scale)
    requests = [
        SolveRequest(
            spec=scaled_spec(size, scale=scale),
            config=config,
            iterations=iterations,
            seed=seed + size,
        )
        for size in params["sizes"]
    ]
    return [job for jobs in runner.plan_jobs(requests) for job in jobs]


def reduce(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> Table1Result:
    """One row per size; sizes and power come from each decoded solve's graph."""
    power_model = params["power_model"] or PowerModel()
    result = Table1Result()
    for requested, solve in zip(params["sizes"], merge_requests(jobs, results)):
        graph = solve.graph
        result.rows.append(
            Table1Row(
                problem_name=f"{requested}-node",
                requested_nodes=requested,
                simulated_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                iterations=solve.num_iterations,
                average_power_w=power_model.total_power(graph.num_nodes, graph.num_edges),
                top_accuracy=float(solve.best_accuracy),
                mean_accuracy=float(solve.accuracies.mean()),
                num_exact=solve.num_exact_solutions,
            )
        )
    return result


EXPERIMENT = Experiment("table1", PARAMS, plan, reduce)


def power_scaling_series(
    sizes: Sequence[int] = TABLE1_SIZES, power_model: Optional[PowerModel] = None
) -> Dict[int, float]:
    """Modeled average power (W) versus problem size — the Table 1 power column.

    Power is a pure circuit-model quantity (it does not require solving), so
    the full-size fabrics are always evaluated exactly, from each board's
    closed-form node and edge counts.
    """
    power_model = power_model or PowerModel()
    series: Dict[int, float] = {}
    for requested in sizes:
        board = scaled_spec(requested, scale=1.0)
        series[requested] = power_model.total_power(board.num_nodes, board.num_edges)
    return series
