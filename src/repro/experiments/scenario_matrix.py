"""Scenario matrix: MSROPM versus the baselines across the workload zoo.

The paper's evaluation is King's-graphs-only; the scenario matrix is the
breadth experiment: every instance of the workload registry
(:mod:`repro.workloads`) is solved by the MSROPM **through the experiment
runtime** — ``plan`` schedules every instance's solve as runner jobs, so the
process pool shards the whole zoo and a warm cache skips it — and compared
against the software/hardware baselines:

* **SA** — simulated annealing (coloring or max-cut, by workload kind),
* **Tabu** — TabuCol (coloring workloads),
* **ROIM** — the single-binary-stage ring-oscillator Ising machine
  (max-cut workloads),
* **single-stage** — the single-stage N-SHIL ROPM (prior work [14]).

Baselines are first-class scheduler jobs
(:class:`repro.runtime.baselines.BaselineJob`): ``plan`` adds one job per
(baseline, instance) after the solves, and the warm process pool shards
MSROPM solves and baseline runs alike; ``reduce`` assembles the matrix from
their results (the protocol is :mod:`repro.experiments.protocol`).  Seeds
derive stably from the scenario seed and results are collected in submission
order, so the full matrix is bit-identical between ``--workers 1`` and
``--workers N`` and cache-hittable across invocations.

Accuracies are *raw ratios*: coloring workloads report the fraction of
properly colored edges; max-cut workloads report ``cut / reference_cut``,
which can exceed 1.0 against heuristic references (the striping cut) and is
only clipped — with a warning — at presentation time
(:func:`repro.analysis.reporting.present_accuracy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.analysis.reporting import (
    FamilyAccuracySummary,
    format_accuracy,
    format_table,
    summarize_accuracy_by_family,
)
from repro.core.config import MSROPMConfig
from repro.core.results import SolveResult
from repro.experiments.problems import default_config
from repro.experiments.protocol import CONFIG, PRECISION, SEED, Experiment, Param
from repro.graphs.graph import Graph
from repro.runtime.baselines import (
    BASELINE_NAMES,
    BaselineJob,
    coloring_cut_ratio,
    cut_ratio,
)
from repro.runtime.jobs import Job, merge_requests
from repro.runtime.runner import ExperimentRunner, SolveRequest
from repro.workloads.registry import (
    ReferenceSolution,
    WorkloadInstance,
    cached_reference,
    derive_instance_seed,
    expand_workloads,
)

#: Baselines the matrix can run, in display order (the runtime's canonical
#: list — one source of truth for baseline names).
SCENARIO_BASELINES = BASELINE_NAMES


@dataclass(frozen=True)
class ScenarioRow:
    """One instance of the matrix: the MSROPM numbers plus baseline accuracies.

    ``baselines`` maps baseline name to its best raw accuracy ratio, or
    ``None`` when the baseline does not apply to the workload kind (e.g.
    TabuCol on a max-cut scenario).  ``instance`` and ``graph`` (the solve's
    decoded graph) back :attr:`reference`.
    """

    family: str
    label: str
    kind: str
    num_nodes: int
    num_edges: int
    num_colors: int
    msropm_accuracies: Tuple[float, ...]
    msropm_exact: int
    baselines: Dict[str, Optional[float]]
    instance: WorkloadInstance = field(repr=False, compare=False)
    graph: Graph = field(repr=False, compare=False)

    @cached_property
    def reference(self) -> ReferenceSolution:
        """The instance's reference solution, computed on first access.

        The matrix itself does not show it, and for coloring workloads it
        can take an exact backtracking search, so a report that is only
        rendered never pays for one.
        """
        return self.instance.reference(self.graph)

    @property
    def msropm_best(self) -> float:
        """Best MSROPM accuracy ratio across the iterations."""
        return max(self.msropm_accuracies)

    @property
    def msropm_mean(self) -> float:
        """Mean MSROPM accuracy ratio across the iterations."""
        return float(np.mean(self.msropm_accuracies))


@dataclass
class ScenarioMatrixResult:
    """Everything one scenario-matrix run produced."""

    rows: List[ScenarioRow] = field(default_factory=list)
    baseline_names: Tuple[str, ...] = SCENARIO_BASELINES
    iterations: int = 0
    runner_stats: Dict[str, int] = field(default_factory=dict)
    workers: int = 1
    wall_time_s: float = 0.0

    def family_summary(self) -> List[FamilyAccuracySummary]:
        """Per-family aggregation of the MSROPM accuracy ratios."""
        return summarize_accuracy_by_family(
            (row.family, row.msropm_accuracies) for row in self.rows
        )

    def render(self) -> str:
        """Render the per-instance matrix and the per-family aggregation.

        Deliberately free of wall-clock and worker-count text so the output is
        byte-comparable across worker counts (the acceptance property).
        """
        baseline_headers = {
            "sa": "SA best",
            "tabu": "Tabu best",
            "roim": "ROIM best",
            "single_stage": "1-stage best",
        }
        headers = [
            "Family",
            "Instance",
            "Kind",
            "Nodes",
            "Edges",
            "Colors",
            "MSROPM best",
            "MSROPM mean",
            "Exact",
        ] + [baseline_headers.get(name, name) for name in self.baseline_names]
        table_rows: List[List[object]] = []
        for row in self.rows:
            cells: List[object] = [
                row.family,
                row.label,
                row.kind,
                row.num_nodes,
                row.num_edges,
                row.num_colors,
                format_accuracy(row.msropm_best, label=f"{row.label} MSROPM best"),
                format_accuracy(row.msropm_mean, label=f"{row.label} MSROPM mean"),
                row.msropm_exact if row.kind == "coloring" else "-",
            ]
            for name in self.baseline_names:
                value = row.baselines.get(name)
                cells.append(
                    "-" if value is None else format_accuracy(value, label=f"{row.label} {name}")
                )
            table_rows.append(cells)
        blocks = [
            format_table(
                headers,
                table_rows,
                title=f"Scenario matrix: MSROPM vs baselines ({self.iterations} iterations/instance)",
            )
        ]
        summary_rows = [
            [
                item.family,
                item.count,
                format_accuracy(item.mean_accuracy, label=f"{item.family} mean"),
                format_accuracy(item.best_accuracy, label=f"{item.family} best"),
            ]
            for item in self.family_summary()
        ]
        blocks.append(
            format_table(
                ("Family", "Instances", "MSROPM mean", "MSROPM best"),
                summary_rows,
                title="Per-family MSROPM accuracy",
            )
        )
        return "\n\n".join(blocks)


def _solve_seed(seed: int, instance: WorkloadInstance) -> int:
    """Stable per-instance solve seed (content-derived, process-independent)."""
    return derive_instance_seed(seed, f"solve:{instance.family}:{instance.label}", 0, 0)


def _baseline_seed(seed: int, baseline: str, instance: WorkloadInstance) -> int:
    """Stable per-(baseline, instance) seed, decorrelated from the solve seed."""
    return derive_instance_seed(seed, f"{baseline}:{instance.family}:{instance.label}", 0, 0)


def plan_scenario_requests(
    instances: Sequence[WorkloadInstance],
    iterations: int = 5,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
    precision: Optional[str] = None,
) -> List[SolveRequest]:
    """The runtime solve requests of the matrix: one MSROPM solve per instance.

    The per-instance config only overrides ``num_colors`` (4 for coloring
    workloads, 2 for max-cut scenarios), so jobs stay hash-stable and a
    suite-style warm pass addresses the same cache entries.
    """
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    base = config or default_config(seed)
    if precision is not None:
        base = base.with_updates(precision=precision)
    return [
        SolveRequest(
            spec=instance.spec,
            config=base.with_updates(num_colors=instance.num_colors),
            iterations=iterations,
            seed=_solve_seed(seed, instance),
        )
        for instance in instances
    ]


def plan_baseline_jobs(
    instances: Sequence[WorkloadInstance],
    references: Sequence[ReferenceSolution],
    iterations: int = 5,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
    baselines: Sequence[str] = SCENARIO_BASELINES,
) -> List[BaselineJob]:
    """The matrix's baseline jobs: one per (instance, baseline), instance-major.

    Every baseline gets the same ``iterations`` budget as the MSROPM and
    reports its best run, so the matrix compares best-of-N against best-of-N.
    Jobs whose baseline does not apply to the workload kind are still planned
    (their payload is ``accuracy: None``): applicability is the baseline's own
    knowledge, and keeping the plan rectangular keeps result mapping trivial.
    """
    base = config or default_config(seed)
    jobs: List[BaselineJob] = []
    for instance, reference in zip(instances, references):
        for name in baselines:
            jobs.append(
                BaselineJob(
                    instance=instance,
                    baseline=name,
                    config=base.with_updates(num_colors=instance.num_colors),
                    iterations=iterations,
                    seed=_baseline_seed(seed, name, instance),
                    reference_cut=reference.reference_cut,
                )
            )
    return jobs


def _maxcut_accuracies(
    instance: WorkloadInstance,
    graph: Graph,
    solve: SolveResult,
    reference_cut: Optional[float],
) -> Tuple[float, ...]:
    """Per-iteration raw cut ratios of the MSROPM column on a max-cut workload.

    Unit-weight instances rescale the bichromatic-edge fraction (exactly the
    cut on unweighted graphs); weighted instances re-score each iteration's
    partition against the weighted objective.
    """
    weights = instance.edge_weights(graph)
    if weights is None:
        return tuple(
            cut_ratio(value, graph.num_edges, reference_cut) for value in solve.accuracies
        )
    from repro.ising.maxcut import MaxCutProblem

    problem = MaxCutProblem(graph, weights=weights)
    return tuple(
        coloring_cut_ratio(problem, graph, item.coloring, reference_cut)
        for item in solve.iterations
    )


PARAMS = (
    Param("families", tuple, item=str),  # None: the whole zoo
    Param("iterations", int, 5),
    SEED,
    CONFIG,
    PRECISION,
    Param("baselines", tuple, SCENARIO_BASELINES, item=str),
)


def _instances(params: Dict[str, Any]) -> List[WorkloadInstance]:
    """The zoo instances of ``params``, once its baseline names are checked."""
    for name in params["baselines"]:
        if name not in SCENARIO_BASELINES:
            raise ConfigurationError(
                f"unknown baseline {name!r}; available: {', '.join(SCENARIO_BASELINES)}"
            )
    return expand_workloads(params["families"], base_seed=params["seed"])


def plan_solves(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """One MSROPM solve per zoo instance, chunked by ``runner``."""
    requests = plan_scenario_requests(
        _instances(params),
        iterations=params["iterations"],
        seed=params["seed"],
        config=params["config"],
        precision=params["precision"],
    )
    return [job for jobs in runner.plan_jobs(requests) for job in jobs]


def plan_baselines(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """One baseline job per (instance, baseline), instance-major.

    Reference solutions ride in the runner's cache (they depend only on the
    content-addressed spec), so a warm plan skips the exact backtracking
    searches; they are needed here because reference cuts are part of each
    baseline job's hash.  No ``precision`` on purpose: the baselines are
    tier-agnostic, so their cached runs survive a tier switch of the solves.
    """
    instances = _instances(params)
    references = [cached_reference(instance, cache=runner.cache) for instance in instances]
    return plan_baseline_jobs(
        instances,
        references,
        iterations=params["iterations"],
        seed=params["seed"],
        config=params["config"],
        baselines=params["baselines"],
    )


def plan(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """The matrix's solves, then its baseline jobs."""
    return plan_solves(params, runner) + plan_baselines(params, runner)


def reduce(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> ScenarioMatrixResult:
    """The matrix from the decoded solves and the baseline payloads.

    Each row's sizes, max-cut re-scoring and (lazy) reference use the
    solve's decoded graph, so no instance graph is built.
    """
    instances = _instances(params)
    baselines = params["baselines"]
    merged = merge_requests(jobs, results)
    solves, payloads = merged[: len(instances)], merged[len(instances):]
    rows: List[ScenarioRow] = []
    for index, (instance, solve) in enumerate(zip(instances, solves)):
        graph = solve.graph
        if instance.kind == "maxcut":
            # Max-cut references are closed forms or weight sums: cheap.
            reference_cut = instance.reference(graph).reference_cut
            accuracies = _maxcut_accuracies(instance, graph, solve, reference_cut)
        else:
            accuracies = tuple(float(value) for value in solve.accuracies)
        row_payloads = payloads[index * len(baselines):(index + 1) * len(baselines)]
        rows.append(
            ScenarioRow(
                family=instance.family,
                label=instance.label,
                kind=instance.kind,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                num_colors=instance.num_colors,
                msropm_accuracies=accuracies,
                msropm_exact=solve.num_exact_solutions,
                baselines={
                    name: payload["accuracy"] for name, payload in zip(baselines, row_payloads)
                },
                instance=instance,
                graph=graph,
            )
        )
    return ScenarioMatrixResult(
        rows=rows, baseline_names=tuple(baselines), iterations=params["iterations"]
    )


EXPERIMENT = Experiment("scenarios", PARAMS, plan, reduce)
