"""The full evaluation suite: every table and figure in one sharded pass.

``msropm suite`` reproduces the paper's whole evaluation grid — Table 1,
Table 2 and Figure 5 — as the composition of their plan/reduce pairs
(:mod:`repro.experiments.protocol`).  ``plan`` concatenates the three plans,
so :func:`~repro.experiments.protocol.run_experiment` submits every job as
**one batch**: the process pool shards the union freely, and the jobs
Figure 5 shares with Table 1 (the same sizes under the same seeds) are
deduplicated by content hash and solved once.  ``reduce`` hands each
experiment's slice of the jobs and results to that experiment's reduce.

With a persistent cache directory, a second ``msropm suite`` invocation runs
no solve and no baseline and renders straight from disk.

The suite also exists as the built-in ``suite`` *campaign*
(:mod:`repro.campaigns.builtin`): the same three pairs as separate ledgered
stages, which is the resumable form (``msropm campaign run suite``).  Both
forms share job hashes, so either one warms the other's cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.experiments import fig5_accuracy, table1_stats, table2_comparison
from repro.experiments.fig5_accuracy import Figure5Result, render_figure5
from repro.experiments.protocol import CONFIG, ITERATIONS, PRECISION, SCALE, SEED, Experiment
from repro.experiments.table1_stats import Table1Result
from repro.experiments.table2_comparison import Table2Result
from repro.runtime.jobs import Job, request_starts
from repro.runtime.runner import ExperimentRunner

PARAMS = (SCALE, ITERATIONS, SEED, PRECISION, CONFIG)

#: The suite's parts, in plan order.
PARTS = (table1_stats.EXPERIMENT, table2_comparison.EXPERIMENT, fig5_accuracy.EXPERIMENT)


@dataclass
class SuiteResult:
    """Everything one suite run produced, plus the runner's accounting."""

    table1: Table1Result
    table2: Table2Result
    figure5: Figure5Result
    wall_time_s: float = 0.0
    runner_stats: Dict[str, int] = field(default_factory=dict)
    workers: int = 1

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


def plan(params: Dict[str, Any], runner: ExperimentRunner) -> List[Job]:
    """Table 1's, Table 2's and Figure 5's jobs, concatenated."""
    return [job for part in PARTS for job in part.plan(part.validate(params), runner)]


def reduce(params: Dict[str, Any], jobs: List[Job], results: List[Any]) -> SuiteResult:
    """Reduce each part over its own slice of the suite's jobs.

    Table 1's slice is its first ``len(sizes)`` requests and Figure 5's its
    last ``len(sizes)``; Table 2's is what lies between (a request is a solve
    with its replica chunks, or one baseline job: ``request_starts``).
    """
    table1, table2, figure5 = (part.validate(params) for part in PARTS)
    starts = request_starts(jobs)
    first = starts[len(table1["sizes"])]
    last = starts[len(starts) - 1 - len(figure5["sizes"])]
    return SuiteResult(
        table1=table1_stats.reduce(table1, jobs[:first], results[:first]),
        table2=table2_comparison.reduce(table2, jobs[first:last], results[first:last]),
        figure5=fig5_accuracy.reduce(figure5, jobs[last:], results[last:]),
    )


EXPERIMENT = Experiment("suite", PARAMS, plan, reduce)
