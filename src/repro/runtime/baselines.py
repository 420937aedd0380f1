"""Baseline jobs: SA/tabu/ROIM/single-stage runs as first-class scheduler work.

Before the polymorphic job protocol, the scenario matrix ran its baseline
column serially in the parent process while the MSROPM column sharded across
the worker pool.  :class:`BaselineJob` closes that gap: one baseline solver's
N runs on one workload instance, content-hashed like a solve job, so
baselines cache, deduplicate and shard exactly like MSROPM solves — and a
campaign stage can schedule them alongside solve jobs in the same batch.  The
scenario matrix reads a job's best run; Table 2 reads its whole per-run
series.

A job carries the :class:`~repro.workloads.registry.WorkloadInstance` (a small
declarative value object — the graph itself is rebuilt in the worker from the
content-addressed spec) plus the baseline name, budget, derived seed and the
reference cut its accuracy normalizes against.  Results are raw accuracy
ratios: ``None`` when the baseline does not apply to the workload kind,
unclipped ratios that may exceed 1.0 against heuristic references.

Weighted workloads (families with a ``weights_provider``) are scored against
their weighted cut: the worker re-derives the per-edge weights from the
instance recipe, so weights never travel on the wire yet every process scores
identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import MSROPMConfig
from repro.runtime.jobs import JOB_SCHEMA_VERSION, Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (registry imports jobs)
    from repro.workloads.registry import WorkloadInstance

#: Baselines a job can run, in the scenario matrix's display order.
BASELINE_NAMES = ("sa", "tabu", "roim", "single_stage")

#: Which baselines apply to which workload kind: ROIM only cuts, TabuCol
#: only colors.
_APPLICABLE = {
    "coloring": ("sa", "tabu", "single_stage"),
    "maxcut": ("sa", "roim", "single_stage"),
}


def baseline_applies(baseline: str, kind: str) -> bool:
    """Whether ``baseline`` can solve workloads of ``kind``."""
    return baseline in _APPLICABLE.get(kind, ())


def cut_ratio(edge_fraction: float, num_edges: int, reference_cut: Optional[float]) -> float:
    """Rescale a properly-cut-edge fraction to the raw ``cut / reference`` ratio.

    A 2-coloring's accuracy is the fraction of bichromatic (= cut) edges, so
    ``fraction * num_edges`` is the cut value on unit-weight graphs.
    """
    if reference_cut is None or reference_cut <= 0:
        return float(edge_fraction)
    return float(edge_fraction * num_edges / reference_cut)


def coloring_cut_ratio(problem, graph, coloring, reference_cut: Optional[float]) -> float:
    """Raw cut ratio of a 2-coloring's induced bipartition on ``problem``.

    The one place the weighted-max-cut scoring convention lives: the
    coloring's 0/1 labels split the graph, the (possibly weighted)
    :class:`~repro.ising.maxcut.MaxCutProblem` scores the cut, and a missing
    or non-positive reference falls back to the raw cut value.  Both the
    scenario matrix's MSROPM column and the single-stage baseline score
    weighted workloads through here, so the columns can never drift apart.
    """
    from repro.graphs.partition import Bipartition

    partition = Bipartition.from_labels(
        {node: coloring.color_of(node) for node in graph.nodes}
    )
    cut = problem.cut_value(partition)
    if reference_cut is None or reference_cut <= 0:
        return float(cut)
    return float(cut / reference_cut)


def run_baseline(
    instance: WorkloadInstance,
    baseline: str,
    config: MSROPMConfig,
    iterations: int,
    seed: int,
    reference_cut: Optional[float] = None,
) -> Optional[List[float]]:
    """Run one baseline on one instance: its per-run accuracies, in run order.

    ``None`` when the baseline does not apply.  Every baseline gets the same
    ``iterations`` budget as the MSROPM, so a best-of over the series
    compares best-of-N against best-of-N.  ``seed`` is the fully derived
    per-(baseline, instance) seed — the caller decorrelates it from the
    MSROPM solve seed — which makes the result a pure function of the job's
    content.
    """
    from repro.rng import iteration_seeds

    if not baseline_applies(baseline, instance.kind):
        # Checked before building the graph: the planner keeps the
        # (instance x baseline) matrix rectangular, so a quarter of the batch
        # is non-applicable pairs that must stay build-free no-ops.
        return None
    graph = instance.build()
    run_seeds = iteration_seeds(seed, iterations)
    if instance.kind == "coloring":
        if baseline == "sa":
            from repro.baselines.simulated_annealing import anneal_coloring

            return [
                anneal_coloring(graph, instance.num_colors, seed=s).accuracy(graph)
                for s in run_seeds
            ]
        if baseline == "tabu":
            from repro.baselines.tabu import tabucol

            return [
                tabucol(graph, instance.num_colors, seed=s).accuracy(graph)
                for s in run_seeds
            ]
        if baseline == "single_stage":
            from repro.baselines.single_stage_ropm import SingleStageROPM

            machine = SingleStageROPM(graph, num_colors=instance.num_colors, config=config)
            return machine.solve(iterations=iterations, seed=seed).accuracies.tolist()
        return None  # ROIM solves max-cut, not coloring
    # ------------------------------------------------------------ max-cut kind
    weights = instance.edge_weights(graph)
    if baseline == "sa":
        from repro.baselines.simulated_annealing import anneal_maxcut
        from repro.ising.maxcut import MaxCutProblem

        problem = MaxCutProblem(graph, weights=weights)
        return [
            problem.accuracy(anneal_maxcut(problem, seed=s), reference_cut=reference_cut)
            for s in run_seeds
        ]
    if baseline == "roim":
        from repro.baselines.roim_maxcut import ROIMMaxCut

        roim = ROIMMaxCut(graph, config=config, reference_cut=reference_cut, weights=weights)
        return [item.accuracy for item in roim.solve(iterations=iterations, seed=seed)]
    if baseline == "single_stage":
        from repro.baselines.single_stage_ropm import SingleStageROPM

        machine = SingleStageROPM(graph, num_colors=instance.num_colors, config=config)
        result = machine.solve(iterations=iterations, seed=seed)
        if weights is None:
            return [
                cut_ratio(value, graph.num_edges, reference_cut) for value in result.accuracies
            ]
        from repro.ising.maxcut import MaxCutProblem

        problem = MaxCutProblem(graph, weights=weights)
        return [
            coloring_cut_ratio(problem, graph, item.coloring, reference_cut)
            for item in result.iterations
        ]
    return None  # TabuCol colors, it does not cut


@dataclass(frozen=True)
class BaselineJob(Job):
    """One baseline solver's N runs on one workload instance.

    ``seed`` is the derived per-(baseline, instance) seed; ``reference_cut``
    is the normalization of max-cut accuracies (part of the content hash —
    change the reference and the job legitimately recomputes).  The payload
    holds the per-run series (``accuracies``) and its best run
    (``accuracy = max(accuracies)``); both are ``None`` when the baseline
    does not apply.
    """

    instance: WorkloadInstance
    baseline: str
    config: MSROPMConfig
    iterations: int
    seed: int
    reference_cut: Optional[float] = None

    job_kind = "baseline"

    # ------------------------------------------------------------------
    @property
    def cacheable(self) -> bool:
        """Deterministic when the run seed is fixed and the graph spec is."""
        return self.seed is not None and self.instance.spec.deterministic

    def describe(self) -> Dict:
        return {
            "job_kind": self.job_kind,
            "job_schema": JOB_SCHEMA_VERSION,
            "baseline": self.baseline,
            "graph": self.instance.spec.fingerprint(),
            "family": self.instance.family,
            "workload_kind": self.instance.kind,
            "num_colors": self.instance.num_colors,
            "config": asdict(self.config),
            "iterations": self.iterations,
            "seed": self.seed,
            "reference_cut": self.reference_cut,
        }

    @property
    def label(self) -> str:
        return f"{self.baseline}:{self.instance.label}/i{self.iterations}/s{self.seed}"

    # ------------------------------------------------------------------
    def run(self) -> Optional[List[float]]:
        """Execute the baseline in-process and return its per-run accuracies."""
        return run_baseline(
            self.instance,
            self.baseline,
            self.config,
            self.iterations,
            self.seed,
            self.reference_cut,
        )

    def execute(self) -> Dict:
        series = self.run()
        if series is None:
            return {"baseline": self.baseline, "accuracy": None, "accuracies": None}
        # Coerce to plain floats: the payload must serialize as JSON (cache
        # entries) no matter what numeric type the baseline solver returned.
        accuracies = [float(value) for value in series]
        return {"baseline": self.baseline, "accuracy": max(accuracies), "accuracies": accuracies}

    def decode(self, payload: Dict) -> Dict:
        return payload

    def validate(self, result: Dict) -> bool:
        """A cached entry must be this baseline's payload shape (per-run series included)."""
        return (
            isinstance(result, dict)
            and result.get("baseline") == self.baseline
            and "accuracy" in result
            and "accuracies" in result
        )
