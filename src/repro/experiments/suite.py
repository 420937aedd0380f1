"""The full evaluation suite: every table and figure in one sharded pass.

``msropm suite`` reproduces the paper's whole evaluation grid — Table 1,
Table 2 and Figure 5 — through a single :class:`ExperimentRunner`.  The suite
first collects every experiment's planned jobs (the Table 1 and Fig. 5 solve
requests, and Table 2's solve and baseline jobs from ``plan_table2_jobs``)
and submits them as **one batch**, so the process pool shards the union of
all jobs freely; duplicate jobs across experiments (Fig. 5 re-plots the sizes
Table 1 solves, under the same seeds) are deduplicated by content hash and
solved once.  The individual experiments then run against the warmed runner
and resolve entirely from its memo/cache.

With a persistent cache directory, a second ``msropm suite`` invocation runs
no solve and no baseline and renders straight from disk.

The suite also exists as the built-in ``suite`` *campaign*
(:mod:`repro.campaigns.builtin`): the same planners as separate ledgered
stages with the Table 1 / Fig. 5 overlap as an explicit dependency, which is
the resumable form (``msropm campaign run suite``).  Both forms share job
hashes, so either one warms the other's cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import MSROPMConfig
from repro.experiments.fig5_accuracy import (
    Figure5Result,
    plan_figure5_requests,
    render_figure5,
    run_figure5,
)
from repro.experiments.table1_stats import Table1Result, plan_table1_requests, run_table1
from repro.experiments.table2_comparison import Table2Result, plan_table2_jobs, run_table2
from repro.runtime.jobs import Job
from repro.runtime.runner import ExperimentRunner


@dataclass
class SuiteResult:
    """Everything one suite invocation produced."""

    table1: Table1Result
    table2: Table2Result
    figure5: Figure5Result
    wall_time_s: float
    runner_stats: Dict[str, int]
    workers: int

    def render(self) -> str:
        """Render the full evaluation plus a runtime summary."""
        stats = self.runner_stats
        summary = (
            f"suite finished in {self.wall_time_s:.1f}s with {self.workers} worker(s): "
            f"{stats['jobs_run']} job(s) solved, "
            f"{stats['cache_hits']} cache hit(s), {stats['cache_stores']} store(s)"
        )
        stale = stats.get("cache_stale_misses", 0)
        if stale:
            summary += (
                f"\nnote: {stale} cache entr{'y' if stale == 1 else 'ies'} were stale "
                "(schema or tier change) and recomputed"
            )
        return "\n\n".join(
            [
                self.table1.render(),
                self.table2.render(),
                render_figure5(self.figure5),
                summary,
            ]
        )


def plan_suite_jobs(
    runner: ExperimentRunner,
    scale: float = 1.0,
    iterations: Optional[int] = None,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
    precision: Optional[str] = None,
) -> List[Job]:
    """The union of all jobs the suite's experiments schedule.

    Reuses each experiment's own planner (solve jobs chunked by ``runner``),
    so the job hashes here are exactly the hashes the standalone experiments
    compute — the warm pass and the per-experiment runs address the same
    cache entries.
    """
    shared = dict(
        iterations=iterations,
        scale=scale,
        config=config,
        seed=seed,
        precision=precision,
    )

    def solve_jobs(requests) -> List[Job]:
        return [job for chunk in runner.plan_jobs(requests) for job in chunk]

    return [
        *solve_jobs(plan_table1_requests(**shared)),
        *plan_table2_jobs(runner, **shared),
        *solve_jobs(plan_figure5_requests(**shared)),
    ]


def run_suite(
    scale: float = 1.0,
    iterations: Optional[int] = None,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
    precision: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> SuiteResult:
    """Run the whole evaluation (Tables 1-2, Figure 5) through one runner.

    ``runner`` supplies the worker pool and cache (``None`` = serial,
    uncached).  Per seed, the results are bit-identical regardless of the
    runner's worker count (the throughput tier is equally deterministic per
    seed, though not bit-identical to the exact tier).
    """
    runner = runner or ExperimentRunner()
    start = time.perf_counter()
    shared = dict(
        iterations=iterations,
        scale=scale,
        config=config,
        seed=seed,
        precision=precision,
    )

    # One sharded pass over the union of all jobs (deduplicated by hash).
    runner.run_jobs(plan_suite_jobs(runner, **shared))

    # The experiments now resolve from the warmed runner.
    table1 = run_table1(runner=runner, **shared)
    table2 = run_table2(runner=runner, **shared)
    figure5 = run_figure5(runner=runner, **shared)
    wall = time.perf_counter() - start
    return SuiteResult(
        table1=table1,
        table2=table2,
        figure5=figure5,
        wall_time_s=wall,
        runner_stats=runner.stats(),
        workers=runner.workers,
    )
