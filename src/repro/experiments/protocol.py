"""The experiment protocol: every table, figure and matrix is a plan/reduce pair.

An :class:`Experiment` declares its parameters once (:class:`Param`: name,
accepted type, default) and two functions:

* ``plan(params, runner) -> list[Job]`` — the runner jobs the experiment
  measures, chunked by the runner's ``replica_chunk``;
* ``reduce(params, jobs, results) -> report`` — fold the planned jobs'
  decoded results (in plan order) into a report with ``render()``.  A reduce
  reads sizes, graphs and baseline payloads from the results: it never plans,
  runs a job or builds a graph.

:func:`run_experiment` is the one-shot form (validate, plan, one
``run_jobs`` batch, reduce) behind ``msropm table1|table2|fig5|suite|
scenarios``; the built-in campaigns (:mod:`repro.campaigns.builtin`) run the
same pairs as ledgered stages, so both forms address the same cache entries.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import MSROPMConfig
from repro.exceptions import ConfigurationError
from repro.runtime.jobs import Job
from repro.runtime.runner import ExperimentRunner

#: Registered experiments: name -> the module that defines its ``EXPERIMENT``.
EXPERIMENT_MODULES = {
    "table1": "repro.experiments.table1_stats",
    "table2": "repro.experiments.table2_comparison",
    "fig5": "repro.experiments.fig5_accuracy",
    "suite": "repro.experiments.suite",
    "scenarios": "repro.experiments.scenario_matrix",
}


@dataclass(frozen=True)
class Param:
    """One declared parameter.

    ``None`` (or leaving the parameter out) always means ``default``.  A
    sequence parameter (``item`` set) takes a list or tuple of ``item``
    values and is passed on as a tuple.  ``bool`` never passes for an
    ``int`` or ``float`` parameter.
    """

    name: str
    type: Union[type, Tuple[type, ...]]
    default: Any = None
    item: Optional[type] = None

    def error(self, value: Any) -> Optional[str]:
        """Why ``value`` does not fit this parameter, or ``None`` if it does."""
        if self.item is not None:
            if isinstance(value, (list, tuple)) and all(_fits(v, self.item) for v in value):
                return None
            expected = f"a list of {self.item.__name__}"
        elif _fits(value, self.type):
            return None
        else:
            types = self.type if isinstance(self.type, tuple) else (self.type,)
            expected = " or ".join(kind.__name__ for kind in types)
        return f"parameter {self.name!r} must be {expected}, got {value!r}"


def _fits(value: Any, kind: Union[type, Tuple[type, ...]]) -> bool:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) and bool not in kinds:
        return False
    return isinstance(value, kinds)


# The parameters most experiments share.
SCALE = Param("scale", (int, float), 1.0)
ITERATIONS = Param("iterations", int)  # None: each experiment's own default
SEED = Param("seed", int, 2025)
PRECISION = Param("precision", str)  # None: the config's tier
CONFIG = Param("config", MSROPMConfig)  # None: default_config(seed)


def validate_params(
    declared: Sequence[Param], params: Optional[Dict[str, Any]], owner: str
) -> Dict[str, Any]:
    """Check ``params`` against ``declared`` and fill in the defaults.

    Every problem is collected first and raised as one
    :class:`~repro.exceptions.ConfigurationError`, so an unknown or ill-typed
    parameter fails before anything is planned or admitted.
    """
    params = dict(params or {})
    names = [param.name for param in declared]
    errors: List[str] = []
    unknown = sorted(set(params) - set(names))
    if unknown:
        errors.append(
            f"{owner} does not accept parameter(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(names)}"
        )
    resolved: Dict[str, Any] = {}
    for param in declared:
        value = params.get(param.name)
        if value is None:
            resolved[param.name] = param.default
            continue
        problem = param.error(value)
        if problem is not None:
            errors.append(problem)
        elif param.item is not None:
            value = tuple(value)
        resolved[param.name] = value
    if errors:
        raise ConfigurationError("; ".join(errors))
    return resolved


@dataclass(frozen=True)
class Experiment:
    """A named plan/reduce pair over declared parameters."""

    name: str
    params: Tuple[Param, ...]
    plan: Callable[[Dict[str, Any], ExperimentRunner], List[Job]]
    reduce: Callable[[Dict[str, Any], List[Job], List[Any]], Any]

    def validate(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """``params`` checked and completed with this experiment's defaults."""
        return validate_params(self.params, params, f"experiment {self.name!r}")


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    if name not in EXPERIMENT_MODULES:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_MODULES)}"
        )
    return importlib.import_module(EXPERIMENT_MODULES[name]).EXPERIMENT


def stamp_run(report: Any, runner: ExperimentRunner, started: float) -> Any:
    """Record the runner's accounting on a report that carries it.

    The suite and scenario reports print (or expose) job, hit and store
    counts, the worker count and the wall time; these describe the run, not
    the results, so the caller that owns the runner fills them in.
    """
    if hasattr(report, "runner_stats"):
        report.runner_stats = runner.stats()
        report.workers = runner.workers
        report.wall_time_s = time.perf_counter() - started
    return report


def run_experiment(
    name: str,
    params: Optional[Dict[str, Any]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Any:
    """Run one experiment: validate, plan, one ``run_jobs`` batch, reduce.

    ``runner`` supplies the worker pool and cache (``None`` = serial,
    uncached).  Per seed the report is bit-identical regardless of the
    runner's worker count, and a warm cache answers every job.
    """
    experiment = get_experiment(name)
    resolved = experiment.validate(params)
    runner = runner or ExperimentRunner()
    started = time.perf_counter()
    jobs = experiment.plan(resolved, runner)
    report = experiment.reduce(resolved, jobs, runner.run_jobs(jobs))
    return stamp_run(report, runner, started)
