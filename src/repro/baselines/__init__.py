"""Software and prior-work baselines used in the paper's comparisons."""

from repro.baselines.simulated_annealing import (
    AnnealingSchedule,
    anneal_coloring,
    anneal_maxcut,
)
from repro.baselines.tabu import TabuParameters, tabucol
from repro.baselines.exact import (
    exact_coloring,
    exact_coloring_backtracking,
    exact_coloring_sat,
    exact_kings_coloring,
)
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.baselines.roim_maxcut import ROIMCutResult, ROIMMaxCut

__all__ = [
    "AnnealingSchedule",
    "anneal_coloring",
    "anneal_maxcut",
    "TabuParameters",
    "tabucol",
    "exact_coloring",
    "exact_coloring_backtracking",
    "exact_coloring_sat",
    "exact_kings_coloring",
    "SingleStageROPM",
    "ROIMMaxCut",
    "ROIMCutResult",
]
