"""Experiment harness: one module per paper table/figure, plus the suite and scenario matrix."""

from repro.experiments.problems import (
    FIGURE5_SIZES,
    PAPER_ITERATIONS,
    TABLE1_SIZES,
    BenchmarkProblem,
    default_config,
    file_workload,
    paper_problem,
    scaled_iterations,
    scaled_problem,
)
from repro.experiments.fig3_waveforms import Figure3Result, render_figure3, run_figure3
from repro.experiments.fig5_accuracy import (
    Figure5Result,
    Figure5Series,
    plan_figure5_requests,
    render_figure5,
    run_figure5,
)
from repro.experiments.table1_stats import (
    Table1Result,
    Table1Row,
    plan_table1_requests,
    power_scaling_series,
    run_table1,
)
from repro.experiments.table2_comparison import (
    Table2Result,
    plan_table2_jobs,
    run_table2,
)
from repro.experiments.scenario_matrix import (
    SCENARIO_BASELINES,
    ScenarioMatrixResult,
    ScenarioRow,
    plan_scenario_requests,
    run_scenario_matrix,
)
from repro.experiments.suite import SuiteResult, plan_suite_jobs, run_suite

__all__ = [
    "BenchmarkProblem",
    "file_workload",
    "paper_problem",
    "scaled_problem",
    "scaled_iterations",
    "default_config",
    "PAPER_ITERATIONS",
    "TABLE1_SIZES",
    "FIGURE5_SIZES",
    "Figure3Result",
    "run_figure3",
    "render_figure3",
    "Figure5Result",
    "Figure5Series",
    "run_figure5",
    "render_figure5",
    "Table1Result",
    "Table1Row",
    "run_table1",
    "power_scaling_series",
    "Table2Result",
    "run_table2",
    "plan_table1_requests",
    "plan_table2_jobs",
    "plan_figure5_requests",
    "SuiteResult",
    "plan_suite_jobs",
    "run_suite",
    "SCENARIO_BASELINES",
    "ScenarioMatrixResult",
    "ScenarioRow",
    "plan_scenario_requests",
    "run_scenario_matrix",
]
