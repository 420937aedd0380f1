"""repro — reproduction of "A Multi-Stage Potts Machine Based on Coupled CMOS Ring Oscillators".

The package implements, from scratch, the MSROPM solver of the DATE 2025 paper
together with every substrate it needs: benchmark graph generators, the
Ising/Potts model layer, a SAT baseline, a behavioural 65 nm circuit layer, the
coupled-oscillator phase dynamics, software baselines and the experiment
harness that regenerates the paper's tables and figures.

Quickstart::

    from repro import kings_graph, MSROPM, MSROPMConfig

    graph = kings_graph(7, 7)                       # the paper's 49-node benchmark
    machine = MSROPM(graph, MSROPMConfig(num_colors=4, seed=1))
    result = machine.solve(iterations=10)
    print(result.best_accuracy, result.best.coloring.is_proper(graph))
"""

from repro.core import (
    MSROPM,
    MSROPMConfig,
    IterationResult,
    SolveResult,
    StageResult,
    BatchedEngine,
    solve_coloring,
)
from repro.graphs import (
    Coloring,
    Graph,
    kings_graph,
    paper_kings_graph,
    PAPER_PROBLEM_SIZES,
)
from repro.circuit import PowerModel, TimingPlan
from repro.exceptions import ReproError
from repro.runtime import (
    BaselineJob,
    ExperimentRunner,
    GraphSpec,
    Job,
    JobScheduler,
    KingsGraphSpec,
    ResultCache,
    SolveJob,
    SolveRequest,
)
from repro.campaigns import (
    CampaignSpec,
    CampaignStage,
    RunLedger,
    StageMachine,
    StageState,
    resume_campaign,
    run_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "MSROPM",
    "MSROPMConfig",
    "IterationResult",
    "SolveResult",
    "StageResult",
    "solve_coloring",
    "BatchedEngine",
    "Graph",
    "Coloring",
    "kings_graph",
    "paper_kings_graph",
    "PAPER_PROBLEM_SIZES",
    "PowerModel",
    "TimingPlan",
    "ReproError",
    "BaselineJob",
    "ExperimentRunner",
    "GraphSpec",
    "Job",
    "JobScheduler",
    "KingsGraphSpec",
    "ResultCache",
    "SolveJob",
    "SolveRequest",
    "CampaignSpec",
    "CampaignStage",
    "RunLedger",
    "StageMachine",
    "StageState",
    "resume_campaign",
    "run_campaign",
    "__version__",
]
