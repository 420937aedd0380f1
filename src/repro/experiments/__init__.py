"""Experiment harness: one module per paper table/figure, plus the suite and scenario matrix.

Each experiment is a plan/reduce pair (:mod:`repro.experiments.protocol`);
library callers run one with ``run_experiment(name, params, runner)``.
"""

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
from repro.experiments.protocol import (
    Experiment,
    Param,
    get_experiment,
    run_experiment,
    validate_params,
)
from repro.experiments.fig3_waveforms import Figure3Result, render_figure3, run_figure3
from repro.experiments.fig5_accuracy import Figure5Result, Figure5Series, render_figure5
from repro.experiments.table1_stats import Table1Result, Table1Row, power_scaling_series
from repro.experiments.table2_comparison import Table2Result, run_table2
from repro.experiments.scenario_matrix import (
    SCENARIO_BASELINES,
    ScenarioMatrixResult,
    ScenarioRow,
    plan_scenario_requests,
)
from repro.experiments.suite import SuiteResult

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
    "Experiment",
    "Param",
    "get_experiment",
    "run_experiment",
    "validate_params",
    "Figure3Result",
    "run_figure3",
    "render_figure3",
    "Figure5Result",
    "Figure5Series",
    "render_figure5",
    "Table1Result",
    "Table1Row",
    "power_scaling_series",
    "Table2Result",
    "run_table2",
    "SuiteResult",
    "SCENARIO_BASELINES",
    "ScenarioMatrixResult",
    "ScenarioRow",
    "plan_scenario_requests",
]
