"""Parallel experiment runtime: jobs, scheduling, caching, and the runner facade.

This package is the execution layer between the experiments and the solver
core.  Experiments declare *what* to solve (:class:`SolveRequest` /
:class:`SolveJob`); the runtime decides *how*: sharding jobs across worker
processes (:class:`JobScheduler`), skipping jobs whose results are already in
the content-addressed on-disk cache (:class:`ResultCache`), and merging
replica-chunked solves back deterministically.  :class:`ExperimentRunner`
is the facade both `repro.experiments` and the CLI route through.
"""

from repro.runtime.cache import (
    BUNDLE_SCHEMA_VERSION,
    CACHE_SCHEMA_VERSION,
    CacheEntryInfo,
    ResultCache,
    default_cache_dir,
    integrity_hash,
)
from repro.runtime.executors import (
    EXECUTOR_NAMES,
    ExecutorBackend,
    LocalPoolExecutorBackend,
    SpoolExecutorBackend,
    make_backend,
)
from repro.runtime.jobs import (
    JOB_SCHEMA_VERSION,
    DimacsGraphSpec,
    ExplicitGraphSpec,
    GeneratedGraphSpec,
    GraphSpec,
    Job,
    KingsGraphSpec,
    SolveJob,
    as_graph_spec,
    merge_job_results,
)
from repro.runtime.baselines import BASELINE_NAMES, BaselineJob, cut_ratio, run_baseline
from repro.runtime.runner import ExperimentRunner, SolveRequest
from repro.runtime.scheduler import JobScheduler
from repro.runtime.spool import (
    SPOOL_SCHEMA_VERSION,
    JobFailedError,
    JobSpool,
    SpoolError,
    SpoolWorker,
    run_fleet_worker,
)

__all__ = [
    "BASELINE_NAMES",
    "BUNDLE_SCHEMA_VERSION",
    "CACHE_SCHEMA_VERSION",
    "EXECUTOR_NAMES",
    "JOB_SCHEMA_VERSION",
    "SPOOL_SCHEMA_VERSION",
    "BaselineJob",
    "CacheEntryInfo",
    "DimacsGraphSpec",
    "ExecutorBackend",
    "ExplicitGraphSpec",
    "GeneratedGraphSpec",
    "GraphSpec",
    "Job",
    "JobFailedError",
    "JobSpool",
    "KingsGraphSpec",
    "LocalPoolExecutorBackend",
    "SolveJob",
    "SolveRequest",
    "SpoolError",
    "SpoolExecutorBackend",
    "SpoolWorker",
    "ExperimentRunner",
    "JobScheduler",
    "ResultCache",
    "as_graph_spec",
    "cut_ratio",
    "default_cache_dir",
    "integrity_hash",
    "make_backend",
    "merge_job_results",
    "run_baseline",
    "run_fleet_worker",
]
