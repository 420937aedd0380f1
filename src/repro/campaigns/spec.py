"""Declarative campaign specifications.

A :class:`CampaignSpec` names a multi-stage evaluation: an ordered set of
:class:`CampaignStage` values, each declaring its prerequisites, how to expand
into a batch of runtime jobs (``plan``), and how to fold the planned jobs and
their results into the stage's output (``reduce``) — the same plan/reduce
pair an experiment is (:mod:`repro.experiments.protocol`).  The spec is pure declaration — no
execution state — so one spec object serves every run, and a resumed run
re-derives exactly the jobs the interrupted run scheduled (planners must be
deterministic in ``(params, prerequisite outputs)``).

``plan`` returning an empty list is legal and useful: aggregation-only stages
(e.g. a final report) express their data dependencies through ``requires``
and do all their work in ``reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.runtime.jobs import Job
from repro.runtime.runner import ExperimentRunner

if TYPE_CHECKING:
    from repro.experiments.protocol import Param


@dataclass
class CampaignContext:
    """Everything a stage's planner/reducer can see during one run.

    ``outputs`` maps already-completed stage names to their reduced outputs;
    the orchestrator fills it in topological order, so a stage can read every
    prerequisite's output by name.
    """

    params: Dict[str, Any]
    runner: ExperimentRunner
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: ``time.perf_counter()`` at run start (set by the orchestrator), so
    #: reducers can report honest elapsed times in their outputs.
    started: float = 0.0


@dataclass(frozen=True)
class CampaignStage:
    """One named stage of a campaign.

    Attributes
    ----------
    name:
        Unique stage name (ledger key, prerequisite handle).
    plan:
        ``plan(context) -> Sequence[Job]`` — the stage's job batch.  Must be
        deterministic so an interrupted run re-plans identical job hashes.
    reduce:
        Optional ``reduce(context, jobs, results) -> Any`` folding the planned
        jobs and their decoded results (in job order) into the stage output;
        defaults to the result list itself.  It reads what it needs from the
        results: it never plans or runs a job.
    requires:
        Names of stages that must have passed before this one starts.
    description:
        One line for reports and ``campaign status``.
    """

    name: str
    plan: Callable[[CampaignContext], Sequence[Job]]
    reduce: Optional[Callable[[CampaignContext, List[Job], List[Any]], Any]] = None
    requires: Tuple[str, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class CampaignSpec:
    """A named, declarative multi-stage experiment campaign.

    ``params`` declares the parameters the campaign's stages read (name,
    type, default: :class:`~repro.experiments.protocol.Param`); the
    orchestrator rejects a run whose params carry anything else or a value
    of the wrong type before anything is planned, so a flag that would be
    silently ignored fails loudly instead.  ``None`` (the default, for
    custom library campaigns) accepts any params.
    """

    name: str
    description: str
    stages: Tuple[CampaignStage, ...]
    params: Optional[Tuple["Param", ...]] = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError(f"campaign {self.name!r} declares no stages")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"campaign {self.name!r} has duplicate stage names"
            )

    def prerequisites(self) -> Dict[str, Tuple[str, ...]]:
        """Stage-name to prerequisite mapping (the stage machine's input)."""
        return {stage.name: stage.requires for stage in self.stages}

    def stage(self, name: str) -> CampaignStage:
        """Look up one stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigurationError(
            f"campaign {self.name!r} has no stage {name!r}"
        )
