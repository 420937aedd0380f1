"""Built-in campaigns: the paper suite and the scenario matrix, re-expressed
as declarative multi-stage campaigns.

``msropm suite`` and ``msropm scenarios`` remain the ephemeral one-shot
commands; the campaigns here are the same evaluations with a control plane:
stages with explicit dependencies, a persistent run ledger, and crash-safe
resume.  Both forms share planners — and therefore job hashes — so a suite
run warms the suite campaign's cache and vice versa.

* ``suite`` — Table 1, Table 2 and Figure 5 as separate stages.  The Fig. 5
  stage *requires* the Table 1 stage: Fig. 5 re-plots the sizes Table 1
  solves under the same seeds, and what used to be an implicit hash-dedup
  inside one batch is now an explicit cross-stage dependency (Fig. 5's
  overlapping jobs resolve from the runner's memo without computing).  The
  Table 2 stage plans its single-stage ROPM and ROIM rows as baseline jobs
  next to the MSROPM solve, so every measured number of the suite is a
  cached job and a warm rerun runs none.
* ``scenarios`` — the workload-zoo matrix with MSROPM solves and baseline
  jobs as two independent root stages and a report stage requiring both.

Stage planners are deterministic in ``(params, runner config)``; that is the
contract resume relies on.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.exceptions import ConfigurationError
from repro.campaigns.spec import CampaignContext, CampaignSpec, CampaignStage
from repro.runtime.jobs import Job

#: Registered campaigns by name (builtins plus any user registrations).
_CAMPAIGNS: Dict[str, CampaignSpec] = {}


def register_campaign(spec: CampaignSpec) -> CampaignSpec:
    """Register a campaign under its name (duplicate names are an error)."""
    if spec.name in _CAMPAIGNS:
        raise ConfigurationError(f"campaign {spec.name!r} is already registered")
    _CAMPAIGNS[spec.name] = spec
    return spec


def get_campaign(name: str) -> CampaignSpec:
    """Look up a registered campaign by name."""
    try:
        return _CAMPAIGNS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r}; available: {', '.join(campaign_names())}"
        ) from None


def campaign_names() -> List[str]:
    """Names of all registered campaigns, in registration order."""
    return list(_CAMPAIGNS)


# ----------------------------------------------------------------------
# The paper suite as a campaign
# ----------------------------------------------------------------------
def _suite_shared(params: Dict[str, Any]) -> Dict[str, Any]:
    """The keyword set every suite experiment planner/runner accepts.

    Present-but-None values take their defaults too (``iterations=None`` is
    itself meaningful: each experiment scales its own default count).
    """
    scale = params.get("scale")
    seed = params.get("seed")
    return dict(
        scale=float(scale) if scale is not None else 1.0,
        iterations=params.get("iterations"),
        seed=int(seed) if seed is not None else 2025,
        precision=params.get("precision"),
        config=None,
    )


def _plan_experiment_jobs(context: CampaignContext, planner) -> List[Job]:
    """Expand one experiment's solve requests into runner-chunked jobs."""
    requests = planner(**_suite_shared(context.params))
    return [job for jobs in context.runner.plan_jobs(requests) for job in jobs]


def _suite_table1_plan(context: CampaignContext) -> List[Job]:
    from repro.experiments.table1_stats import plan_table1_requests

    return _plan_experiment_jobs(context, plan_table1_requests)


def _suite_table1_reduce(context: CampaignContext, results: List[Any]) -> Any:
    from repro.experiments.table1_stats import run_table1

    return run_table1(runner=context.runner, **_suite_shared(context.params))


def _suite_table2_plan(context: CampaignContext) -> List[Job]:
    from repro.experiments.table2_comparison import plan_table2_jobs

    return plan_table2_jobs(context.runner, **_suite_shared(context.params))


def _suite_table2_reduce(context: CampaignContext, results: List[Any]) -> Any:
    from repro.experiments.table2_comparison import run_table2

    return run_table2(runner=context.runner, **_suite_shared(context.params))


def _suite_fig5_plan(context: CampaignContext) -> List[Job]:
    from repro.experiments.fig5_accuracy import plan_figure5_requests

    return _plan_experiment_jobs(context, plan_figure5_requests)


def _suite_fig5_reduce(context: CampaignContext, results: List[Any]) -> Any:
    from repro.experiments.fig5_accuracy import run_figure5

    return run_figure5(runner=context.runner, **_suite_shared(context.params))


def _suite_report_reduce(context: CampaignContext, results: List[Any]) -> Any:
    from repro.experiments.suite import SuiteResult

    return SuiteResult(
        table1=context.outputs["table1"],
        table2=context.outputs["table2"],
        figure5=context.outputs["fig5"],
        wall_time_s=context.elapsed(),
        runner_stats=context.runner.stats(),
        workers=context.runner.workers,
    )


def _no_jobs(context: CampaignContext) -> List[Job]:
    """Planner of aggregation-only stages."""
    return []


register_campaign(
    CampaignSpec(
        name="suite",
        description="the paper's full evaluation (Tables 1-2, Fig. 5) with "
        "the Table 1 / Fig. 5 overlap as an explicit dependency",
        stages=(
            CampaignStage(
                name="table1",
                plan=_suite_table1_plan,
                reduce=_suite_table1_reduce,
                description="Table 1 per-problem statistics",
            ),
            CampaignStage(
                name="table2",
                plan=_suite_table2_plan,
                reduce=_suite_table2_reduce,
                description="Table 2 prior-work comparison",
            ),
            CampaignStage(
                name="fig5",
                plan=_suite_fig5_plan,
                reduce=_suite_fig5_reduce,
                requires=("table1",),
                description="Figure 5 accuracy series (re-plots Table 1 sizes)",
            ),
            CampaignStage(
                name="report",
                plan=_no_jobs,
                reduce=_suite_report_reduce,
                requires=("table1", "table2", "fig5"),
                description="assemble the suite report",
            ),
        ),
        param_names=("scale", "iterations", "seed", "precision"),
    )
)


# ----------------------------------------------------------------------
# The scenario matrix as a campaign
# ----------------------------------------------------------------------
def _scenario_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.scenario_matrix import SCENARIO_BASELINES

    families = params.get("families")
    baselines = params.get("baselines")
    # The CLI passes every knob explicitly, including unset ones as None, so
    # defaults must apply to present-but-None values too (dict.get's default
    # only covers missing keys).
    iterations = params.get("iterations")
    seed = params.get("seed")
    return dict(
        families=list(families) if families is not None else None,
        iterations=int(iterations) if iterations is not None else 5,
        seed=int(seed) if seed is not None else 2025,
        precision=params.get("precision"),
        baselines=tuple(baselines) if baselines is not None else SCENARIO_BASELINES,
    )


def _scenario_solves_plan(context: CampaignContext) -> List[Job]:
    from repro.experiments.scenario_matrix import plan_scenario_requests
    from repro.workloads.registry import expand_workloads

    options = _scenario_params(context.params)
    instances = expand_workloads(options["families"], base_seed=options["seed"])
    requests = plan_scenario_requests(
        instances,
        iterations=options["iterations"],
        seed=options["seed"],
        precision=options["precision"],
    )
    return [job for jobs in context.runner.plan_jobs(requests) for job in jobs]


def _scenario_baselines_plan(context: CampaignContext) -> List[Job]:
    from repro.experiments.scenario_matrix import plan_baseline_jobs
    from repro.workloads.registry import cached_reference, expand_workloads

    options = _scenario_params(context.params)
    instances = expand_workloads(options["families"], base_seed=options["seed"])
    references = [
        cached_reference(instance, cache=context.runner.cache)
        for instance in instances
    ]
    # No ``precision`` here on purpose: the baselines are tier-agnostic, so
    # their cached runs survive a tier switch of the MSROPM solves.
    return list(
        plan_baseline_jobs(
            instances,
            references,
            iterations=options["iterations"],
            seed=options["seed"],
            baselines=options["baselines"],
        )
    )


def _scenario_report_reduce(context: CampaignContext, results: List[Any]) -> Any:
    from repro.experiments.scenario_matrix import run_scenario_matrix

    options = _scenario_params(context.params)
    return run_scenario_matrix(runner=context.runner, **options)


register_campaign(
    CampaignSpec(
        name="scenarios",
        description="MSROPM vs the baselines across the workload zoo, with "
        "solves and baselines as independent sharded stages",
        stages=(
            CampaignStage(
                name="solves",
                plan=_scenario_solves_plan,
                description="MSROPM solves across the workload zoo",
            ),
            CampaignStage(
                name="baselines",
                plan=_scenario_baselines_plan,
                description="SA/tabu/ROIM/single-stage baseline jobs",
            ),
            CampaignStage(
                name="report",
                plan=_no_jobs,
                reduce=_scenario_report_reduce,
                requires=("solves", "baselines"),
                description="assemble the scenario matrix",
            ),
        ),
        param_names=("families", "iterations", "seed", "precision", "baselines"),
    )
)
