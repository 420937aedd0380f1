"""Tests for the one-pass evaluation suite and its runtime integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.roim_maxcut import ROIMMaxCut
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign
from repro.experiments.protocol import get_experiment, run_experiment
from repro.experiments.table2_comparison import run_table2
from repro.runtime.baselines import BaselineJob
from repro.runtime.runner import ExperimentRunner

#: Tiny-but-real suite shape used by all tests here.
SUITE_KWARGS = dict(scale=0.05, iterations=2, seed=2025)


def plan_suite_jobs(runner):
    """The suite's planned jobs at ``SUITE_KWARGS``."""
    suite = get_experiment("suite")
    return suite.plan(suite.validate(SUITE_KWARGS), runner)


def _suite_accuracy_fingerprint(result):
    """Every per-iteration number the suite reports, as comparable arrays."""
    return (
        [(row.problem_name, row.top_accuracy, row.mean_accuracy, row.num_exact) for row in result.table1.rows],
        result.table2.msropm_accuracies.tolist(),
        result.table2.ropm_accuracies.tolist(),
        result.table2.roim_accuracies.tolist(),
        [
            (series.problem_name, series.coloring_accuracies.tolist(), series.maxcut_accuracies.tolist())
            for series in result.figure5.series
        ],
    )


class TestSuitePlanning:
    def test_plan_covers_all_experiments(self):
        jobs = plan_suite_jobs(ExperimentRunner())
        # 4 Table 1 problems + 1 Table 2 headline row + 3 Figure 5 problems,
        # plus Table 2's single-stage ROPM and ROIM baseline rows.
        assert len(jobs) == 10
        assert [job.baseline for job in jobs if isinstance(job, BaselineJob)] == [
            "single_stage",
            "roim",
        ]

    def test_fig5_jobs_dedupe_against_table1(self):
        """Fig. 5 replots Table 1's sizes under the same seeds: same hashes."""
        hashes = [job.job_hash for job in plan_suite_jobs(ExperimentRunner())]
        # The three Figure 5 jobs are hash-identical to three Table 1 jobs.
        assert len(hashes) - len(set(hashes)) == 3


class TestSuiteExecution:
    def test_suite_runs_and_renders(self, tmp_path):
        result = run_experiment("suite", SUITE_KWARGS, ExperimentRunner(cache_dir=tmp_path))
        text = result.render()
        assert "Table 1" in text
        assert "MSROPM (this work)" in text
        assert "Figure 5(a)" in text
        assert "suite finished" in text
        # Deduplication: 10 planned jobs, 7 distinct ones actually run (5
        # solves and Table 2's two baseline rows).
        assert result.runner_stats["jobs_run"] == 7

    def test_parallel_suite_bit_identical_to_serial_and_warm_cache_skips(self, tmp_path):
        """The PR's acceptance property at test scale: workers=4 == workers=1,
        and a warm cache turns the rerun into pure loads."""
        serial = run_experiment("suite", SUITE_KWARGS, ExperimentRunner(workers=1))
        parallel_runner = ExperimentRunner(workers=4, cache_dir=tmp_path)
        parallel = run_experiment("suite", SUITE_KWARGS, parallel_runner)
        assert _suite_accuracy_fingerprint(serial) == _suite_accuracy_fingerprint(parallel)

        warm_runner = ExperimentRunner(workers=4, cache_dir=tmp_path)
        warm = run_experiment("suite", SUITE_KWARGS, warm_runner)
        assert warm.runner_stats["jobs_run"] == 0
        assert warm.runner_stats["cache_hits"] == 7
        assert _suite_accuracy_fingerprint(serial) == _suite_accuracy_fingerprint(warm)


class TestWarmSuiteSimulatesNothing:
    @staticmethod
    def _campaign(cache_dir):
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            result = run_campaign(
                get_campaign("suite"), dict(SUITE_KWARGS), runner=runner,
                ledger=RunLedger(ledger_root(cache_dir)),
            )
        return result.final_output

    @staticmethod
    def _suite(cache_dir):
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            return run_experiment("suite", SUITE_KWARGS, runner)

    @pytest.mark.parametrize("cold_entry", ["_campaign", "_suite"])
    def test_warm_rerun_runs_no_baseline(self, cold_entry, tmp_path, monkeypatch):
        """Either cold entry point warms every Table 2 row for the others: a
        warm campaign, a one-shot ``suite`` and ``run_table2`` on that cache run no
        job, and the Table 2 render is byte-identical to the cold one."""
        cold = getattr(self, cold_entry)(tmp_path)
        assert cold.runner_stats["jobs_run"] == 7

        def simulate(*args, **kwargs):
            raise AssertionError("a warm run simulated a baseline row")

        monkeypatch.setattr(SingleStageROPM, "_run", simulate)
        monkeypatch.setattr(ROIMMaxCut, "_run", simulate)
        for warm in (self._campaign(tmp_path), self._suite(tmp_path)):
            assert warm.runner_stats["jobs_run"] == 0
            assert warm.table2.render() == cold.table2.render()
        with ExperimentRunner(workers=1, cache_dir=tmp_path) as runner:
            table2 = run_table2(runner=runner, **SUITE_KWARGS)
            assert runner.stats()["jobs_run"] == 0
        assert table2.render() == cold.table2.render()
