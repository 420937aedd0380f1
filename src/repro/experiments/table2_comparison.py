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

Every measured row is a runner job of ``plan``: the headline MSROPM solve as
solve jobs and the single-stage ROPM and ROIM rows as
:class:`repro.runtime.baselines.BaselineJob` values on King's-board workload
instances; ``reduce`` assembles the table from their results (the protocol is
:mod:`repro.experiments.protocol`).  All three shard and cache with the rest
of the evaluation, so a warm run reads the whole table from the cache and
simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.comparison import ComparisonRow, ComparisonTable, accuracy_range_text
from repro.circuit.power import PowerModel
from repro.experiments.problems import default_config, scaled_iterations, scaled_spec
from repro.experiments.protocol import (
    CONFIG,
    ITERATIONS,
    PRECISION,
    SCALE,
    SEED,
    Experiment,
    Param,
    run_experiment,
)
from repro.ising.maxcut import kings_graph_reference_cut
from repro.runtime.baselines import BaselineJob
from repro.runtime.jobs import Job, KingsGraphSpec, merge_requests
from repro.runtime.runner import ExperimentRunner, SolveRequest
from repro.workloads.registry import WorkloadInstance


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


def _kings_instance(
    family: str, kind: str, num_colors: int, spec: KingsGraphSpec
) -> WorkloadInstance:
    """A comparison-board workload instance of one baseline row."""
    return WorkloadInstance(
        family=family,
        label=spec.label,
        params=(("rows", spec.rows),),
        seed=None,
        spec=spec,
        kind=kind,
        num_colors=num_colors,
    )


PARAMS = (
    Param("msropm_nodes", int, 2116),
    Param("comparison_nodes", int, 400),
    ITERATIONS,
    SCALE,
    CONFIG,
    Param("power_model", PowerModel),
    SEED,
    PRECISION,
)


def plan(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """Every job Table 2 measures, in row order.

    The headline MSROPM row's solve jobs on the ``msropm_nodes`` board (the
    paper uses its largest, 2116 nodes; chunked by ``runner``), then two
    :class:`BaselineJob` values on the ``comparison_nodes`` board, kept
    smaller since those rows exist for accuracy comparison, not for scale
    records: the single-stage 3-SHIL ROPM (3-coloring, seed ``seed + 1``) and
    the ROIM (max-cut against the King's striping cut, seed ``seed + 2``).  ``precision`` applies to the MSROPM row only: the
    baselines are tier-agnostic, so one cached run serves both tiers.
    """
    seed, scale = params["seed"], params["scale"]
    iterations = params["iterations"]
    if iterations is None:
        iterations = scaled_iterations(scale)
    base = params["config"] or default_config(seed)
    precision = params["precision"]
    headline = SolveRequest(
        spec=scaled_spec(params["msropm_nodes"], scale=scale),
        config=base if precision is None else base.with_updates(precision=precision),
        iterations=iterations,
        seed=seed,
    )
    jobs: List[Job] = list(runner.plan_jobs([headline])[0])
    board = scaled_spec(params["comparison_nodes"], scale=scale)
    jobs.append(
        BaselineJob(
            instance=_kings_instance("kings", "coloring", 3, board),
            baseline="single_stage",
            config=base,
            iterations=iterations,
            seed=seed + 1,
        )
    )
    # Normalize the ROIM cut against the King's-graph reference striping cut
    # (the cut the exact 4-coloring induces), mirroring how the hardware ROIMs
    # are scored against a heuristic reference rather than the unattainable
    # total edge count.
    jobs.append(
        BaselineJob(
            instance=_kings_instance("maxcut", "maxcut", 2, board),
            baseline="roim",
            config=base,
            iterations=iterations,
            seed=seed + 2,
            reference_cut=float(kings_graph_reference_cut(board.rows, board.cols)),
        )
    )
    return jobs


def reduce(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> Table2Result:
    """Assemble the comparison from the MSROPM solve and both baseline payloads.

    The MSROPM row's size comes from its decoded graph; the comparison
    board's from its :class:`KingsGraphSpec` in closed form, so no board is
    built.
    """
    base = params["config"] or default_config(params["seed"])
    power_model = params["power_model"] or PowerModel()
    msropm_result, ropm_payload, roim_payload = merge_requests(jobs, results)
    ropm_accuracies = np.array(ropm_payload["accuracies"], dtype=float)
    roim_accuracies = np.array(roim_payload["accuracies"], dtype=float)

    table = ComparisonTable()
    msropm_graph = msropm_result.graph
    msropm_power = power_model.total_power(msropm_graph.num_nodes, msropm_graph.num_edges)
    table.add_row(
        ComparisonRow(
            label="MSROPM (this work)",
            solver_type="Potts",
            solved_cop="4-coloring",
            technology="CMOS 65nm GP (modeled)",
            spins=msropm_graph.num_nodes,
            average_power_w=msropm_power,
            time_to_solution_s=base.total_run_time,
            accuracy_range=accuracy_range_text(
                float(msropm_result.accuracies.min()), float(msropm_result.accuracies.max())
            ),
            baseline="Exact solution",
            source="measured",
        )
    )

    # Both baseline rows run on the comparison board: one init + anneal +
    # lock triple per run (SingleStageROPM.run_time, ROIMMaxCut.run_time).
    board = jobs[-1].instance.spec
    board_power = power_model.total_power(board.num_nodes, board.num_edges)
    single_stage_time = base.timing.total_for_stages(1)
    table.add_row(
        ComparisonRow(
            label="Single-stage 3-SHIL ROPM [14]-style",
            solver_type="Potts",
            solved_cop="3-coloring",
            technology="CMOS 65nm GP (modeled)",
            spins=board.num_nodes,
            average_power_w=board_power,
            time_to_solution_s=single_stage_time,
            accuracy_range=accuracy_range_text(
                float(ropm_accuracies.min()), float(ropm_accuracies.max())
            ),
            baseline="Exact solution",
            source="measured",
        )
    )
    table.add_row(
        ComparisonRow(
            label="ROIM [7]/[8]-style",
            solver_type="Ising",
            solved_cop="Max-Cut",
            technology="CMOS 65nm GP (modeled)",
            spins=board.num_nodes,
            average_power_w=board_power,
            time_to_solution_s=single_stage_time,
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
        ropm_accuracies=ropm_accuracies,
        roim_accuracies=roim_accuracies,
    )


EXPERIMENT = Experiment("table2", PARAMS, plan, reduce)


def run_table2(runner: Optional[ExperimentRunner] = None, **params: Any) -> Table2Result:
    """Table 2 in one call: ``run_experiment("table2", params, runner)``."""
    return run_experiment("table2", params, runner)
