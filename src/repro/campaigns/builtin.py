"""Built-in campaigns: the paper suite and the scenario matrix, re-expressed
as declarative multi-stage campaigns.

``msropm suite`` and ``msropm scenarios`` remain the ephemeral one-shot
commands; the campaigns here are the same evaluations with a control plane:
stages with explicit dependencies, a persistent run ledger, and crash-safe
resume.  A stage *is* an experiment's plan/reduce pair
(:mod:`repro.experiments.protocol`), so both forms plan the same jobs — and
therefore the same hashes — and a suite run warms the suite campaign's cache
and vice versa.

* ``suite`` — the Table 1, Table 2 and Figure 5 pairs as separate stages.
  The Fig. 5 stage *requires* the Table 1 stage: Fig. 5 re-plots the sizes
  Table 1 solves under the same seeds, so its overlapping jobs resolve from
  the runner's memo without computing.  Every measured number of the suite
  is a cached job, and a warm rerun runs none.
* ``scenarios`` — the workload-zoo matrix with MSROPM solves and baseline
  jobs as two independent root stages, and a report stage that reduces
  their jobs and results without planning or running one.

Stage planners are deterministic in ``(params, runner config)``; that is the
contract resume relies on.  The built-in campaigns register on the registry's
first use, because they import the experiment modules, which a plain
``import repro`` (every pool worker's) does not need.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.campaigns.spec import CampaignContext, CampaignSpec, CampaignStage
from repro.runtime.jobs import Job

#: Registered campaigns by name (builtins plus any user registrations).
_CAMPAIGNS: Dict[str, CampaignSpec] = {}


def _registry() -> Dict[str, CampaignSpec]:
    """The registry, with the built-in campaigns registered first."""
    if not _CAMPAIGNS:
        for spec in _builtin_campaigns():
            _CAMPAIGNS[spec.name] = spec
    return _CAMPAIGNS


def register_campaign(spec: CampaignSpec) -> CampaignSpec:
    """Register a campaign under its name (duplicate names are an error)."""
    if spec.name in _registry():
        raise ConfigurationError(f"campaign {spec.name!r} is already registered")
    _CAMPAIGNS[spec.name] = spec
    return spec


def get_campaign(name: str) -> CampaignSpec:
    """Look up a registered campaign by name."""
    try:
        return _registry()[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r}; available: {', '.join(campaign_names())}"
        ) from None


def campaign_names() -> List[str]:
    """Names of all registered campaigns, in registration order."""
    return list(_registry())


def experiment_stage(
    name: str,
    experiment: Any,
    requires: Tuple[str, ...] = (),
    description: str = "",
) -> CampaignStage:
    """A stage that runs an :class:`~repro.experiments.protocol.Experiment`'s
    plan/reduce pair on the campaign's params, checked against the
    experiment's own before anything is planned."""
    return CampaignStage(
        name=name,
        plan=lambda context: experiment.plan(
            experiment.validate(context.params), context.runner
        ),
        reduce=lambda context, jobs, results: experiment.reduce(
            experiment.validate(context.params), jobs, results
        ),
        requires=requires,
        description=description,
    )


def _no_jobs(context: CampaignContext) -> List[Job]:
    """Planner of aggregation-only stages."""
    return []


def _planned(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> Any:
    """A reduce that keeps the jobs beside their results for a later stage's."""
    return jobs, results


def _builtin_campaigns() -> Tuple[CampaignSpec, ...]:
    """The ``suite`` and ``scenarios`` campaigns."""
    from repro.experiments import fig5_accuracy, scenario_matrix, suite, table1_stats, table2_comparison
    from repro.experiments.protocol import stamp_run

    def suite_report(context: CampaignContext, jobs: List[Job], results: List[Any]) -> Any:
        report = suite.SuiteResult(
            table1=context.outputs["table1"],
            table2=context.outputs["table2"],
            figure5=context.outputs["fig5"],
        )
        return stamp_run(report, context.runner, context.started)

    scenarios = scenario_matrix.EXPERIMENT
    # The matrix's two halves as stages of their own; the report reduces both.
    solves = replace(scenarios, plan=scenario_matrix.plan_solves, reduce=_planned)
    baselines = replace(scenarios, plan=scenario_matrix.plan_baselines, reduce=_planned)

    def scenario_report(context: CampaignContext, jobs: List[Job], results: List[Any]) -> Any:
        solve_jobs, solve_results = context.outputs["solves"]
        baseline_jobs, payloads = context.outputs["baselines"]
        report = scenarios.reduce(
            scenarios.validate(context.params),
            solve_jobs + baseline_jobs,
            solve_results + payloads,
        )
        return stamp_run(report, context.runner, context.started)

    return (
        CampaignSpec(
            name="suite",
            description="the paper's full evaluation (Tables 1-2, Fig. 5) with "
            "the Table 1 / Fig. 5 overlap as an explicit dependency",
            stages=(
                experiment_stage(
                    "table1", table1_stats.EXPERIMENT,
                    description="Table 1 per-problem statistics",
                ),
                experiment_stage(
                    "table2", table2_comparison.EXPERIMENT,
                    description="Table 2 prior-work comparison",
                ),
                experiment_stage(
                    "fig5", fig5_accuracy.EXPERIMENT, requires=("table1",),
                    description="Figure 5 accuracy series (re-plots Table 1 sizes)",
                ),
                CampaignStage(
                    name="report",
                    plan=_no_jobs,
                    reduce=suite_report,
                    requires=("table1", "table2", "fig5"),
                    description="assemble the suite report",
                ),
            ),
            # Every suite param but ``config``, which a ledger cannot record.
            params=tuple(param for param in suite.PARAMS if param.name != "config"),
        ),
        CampaignSpec(
            name="scenarios",
            description="MSROPM vs the baselines across the workload zoo, with "
            "solves and baselines as independent sharded stages",
            stages=(
                experiment_stage(
                    "solves", solves, description="MSROPM solves across the workload zoo",
                ),
                experiment_stage(
                    "baselines", baselines,
                    description="SA/tabu/ROIM/single-stage baseline jobs",
                ),
                CampaignStage(
                    name="report",
                    plan=_no_jobs,
                    reduce=scenario_report,
                    requires=("solves", "baselines"),
                    description="assemble the scenario matrix",
                ),
            ),
            params=tuple(param for param in scenarios.params if param.name != "config"),
        ),
    )
