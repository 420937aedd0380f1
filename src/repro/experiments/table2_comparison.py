"""Table 2 reproduction: comparison of the MSROPM with prior work.

Three rows are *measured* by running re-implementations on the shared
phase-domain substrate:

* **MSROPM (this work)** — 4-coloring on the largest benchmark (2116 nodes at
  full scale), reporting power from the bottom-up circuit model, the 60 ns
  modeled time-to-solution, and the worst/best accuracy over the iterations.
* **Single-stage N-SHIL ROPM** (the paper's reference [14]) — 3-coloring with
  a 3rd-order SHIL in one stage.
* **ROIM** (references [7]/[8]) — max-cut with a single binary stage.

The optical/hybrid machines ([11], [13]) and the RTWO machine ([9]) cannot be
re-implemented meaningfully here, so their rows are carried over from the
paper and marked "cited".

The headline MSROPM solve routes through the experiment runtime
(``plan_table2_requests`` ->
:meth:`repro.runtime.runner.ExperimentRunner.solve_many`), so it shards and
caches with the rest of the evaluation; the single-stage ROPM and ROIM
baselines keep their own (cheap, comparison-sized) iteration loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.comparison import ComparisonRow, ComparisonTable, accuracy_range_text
from repro.baselines.roim_maxcut import ROIMMaxCut
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.circuit.power import PowerModel
from repro.core.config import MSROPMConfig
from repro.experiments.problems import default_config, scaled_iterations, scaled_problem, scaled_spec
from repro.runtime.runner import ExperimentRunner, SolveRequest


@dataclass
class Table2Result:
    """The assembled comparison table plus the raw measured accuracies."""

    table: ComparisonTable
    msropm_accuracies: np.ndarray
    ropm_accuracies: np.ndarray
    roim_accuracies: np.ndarray

    def render(self) -> str:
        """Render the full table (measured + cited rows)."""
        return self.table.with_literature().render()


def plan_table2_requests(
    msropm_nodes: int = 2116,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    seed: int = 2025,
    precision: Optional[str] = None,
) -> List[SolveRequest]:
    """The runtime solve requests of Table 2: the headline MSROPM row."""
    config = config or default_config(seed)
    if precision is not None:
        config = config.with_updates(precision=precision)
    iterations = iterations if iterations is not None else scaled_iterations(scale)
    return [
        SolveRequest(
            spec=scaled_spec(msropm_nodes, scale=scale),
            config=config,
            iterations=iterations,
            seed=seed,
        )
    ]


def run_table2(
    msropm_nodes: int = 2116,
    comparison_nodes: int = 400,
    iterations: Optional[int] = None,
    scale: float = 1.0,
    config: Optional[MSROPMConfig] = None,
    power_model: Optional[PowerModel] = None,
    seed: int = 2025,
    precision: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Table2Result:
    """Measure the re-implemented rows of Table 2 and assemble the comparison.

    ``msropm_nodes`` selects the problem size for the headline MSROPM row (the
    paper uses its largest, 2116 nodes); ``comparison_nodes`` sizes the
    single-stage ROPM and ROIM rows (kept smaller since they exist for
    accuracy comparison, not for scale records).  ``runner`` supplies the
    execution runtime for the MSROPM row (``None`` = serial, uncached).
    """
    runner = runner or ExperimentRunner()
    config = config or default_config(seed)
    if precision is not None:
        # Only the MSROPM headline row runs at the selected precision; the
        # single-stage baselines keep the exact tier.
        config = config.with_updates(precision=precision)
    power_model = power_model or PowerModel()
    iterations = iterations if iterations is not None else scaled_iterations(scale)

    table = ComparisonTable()

    # ----------------------------------------------------------- MSROPM row
    msropm_problem = scaled_problem(msropm_nodes, scale=scale)
    requests = plan_table2_requests(
        msropm_nodes=msropm_nodes, iterations=iterations, scale=scale, config=config, seed=seed
    )
    msropm_result = runner.solve_many(requests)[0]
    msropm_power = power_model.total_power(
        msropm_problem.graph.num_nodes, msropm_problem.graph.num_edges
    )
    table.add_row(
        ComparisonRow(
            label="MSROPM (this work)",
            solver_type="Potts",
            solved_cop="4-coloring",
            technology="CMOS 65nm GP (modeled)",
            spins=msropm_problem.graph.num_nodes,
            average_power_w=msropm_power,
            time_to_solution_s=config.total_run_time,
            accuracy_range=accuracy_range_text(
                float(msropm_result.accuracies.min()), float(msropm_result.accuracies.max())
            ),
            baseline="Exact solution",
            source="measured",
        )
    )

    # ------------------------------------------- single-stage N-SHIL ROPM row
    ropm_problem = scaled_problem(comparison_nodes, scale=scale)
    ropm = SingleStageROPM(ropm_problem.graph, num_colors=3, config=config)
    ropm_result = ropm.solve(iterations=iterations, seed=seed + 1)
    ropm_power = power_model.total_power(
        ropm_problem.graph.num_nodes, ropm_problem.graph.num_edges
    )
    table.add_row(
        ComparisonRow(
            label="Single-stage 3-SHIL ROPM [14]-style",
            solver_type="Potts",
            solved_cop="3-coloring",
            technology="CMOS 65nm GP (modeled)",
            spins=ropm_problem.graph.num_nodes,
            average_power_w=ropm_power,
            time_to_solution_s=ropm.run_time,
            accuracy_range=accuracy_range_text(
                float(ropm_result.accuracies.min()), float(ropm_result.accuracies.max())
            ),
            baseline="Exact solution",
            source="measured",
        )
    )

    # ----------------------------------------------------------------- ROIM row
    roim_problem = scaled_problem(comparison_nodes, scale=scale)
    # Normalize the ROIM cut against the King's-graph reference striping cut
    # (the cut the exact 4-coloring induces), mirroring how the hardware ROIMs
    # are scored against a heuristic reference rather than the unattainable
    # total edge count.
    from repro.ising import kings_graph_reference_cut

    roim_reference = kings_graph_reference_cut(roim_problem.rows, roim_problem.cols)
    roim = ROIMMaxCut(roim_problem.graph, config=config, reference_cut=roim_reference)
    roim_results = roim.solve(iterations=iterations, seed=seed + 2)
    roim_accuracies = np.array([item.accuracy for item in roim_results])
    roim_power = power_model.total_power(
        roim_problem.graph.num_nodes, roim_problem.graph.num_edges
    )
    table.add_row(
        ComparisonRow(
            label="ROIM [7]/[8]-style",
            solver_type="Ising",
            solved_cop="Max-Cut",
            technology="CMOS 65nm GP (modeled)",
            spins=roim_problem.graph.num_nodes,
            average_power_w=roim_power,
            time_to_solution_s=roim.run_time,
            accuracy_range=accuracy_range_text(
                float(roim_accuracies.min()), float(roim_accuracies.max())
            ),
            baseline="Reference striping cut",
            source="measured",
        )
    )

    return Table2Result(
        table=table,
        msropm_accuracies=msropm_result.accuracies,
        ropm_accuracies=ropm_result.accuracies,
        roim_accuracies=roim_accuracies,
    )
