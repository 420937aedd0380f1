"""Tests for the campaign orchestrator: stage machine, ledger, resume,
baseline jobs, and the new workload families riding this PR.

The load-bearing properties are the acceptance criteria:

* the stage machine rejects illegal transitions, enforces prerequisites and
  cascades failure onto dependents,
* a campaign killed mid-run resumes from its ledger with completed stages'
  jobs served from the cache (zero recomputation) and byte-identical final
  results,
* baseline jobs are bit-identical across worker counts and cache like any
  other job,
* weighted max-cut weights are seed-derived and cross-process stable, and
  the raw (unclipped) stage-1 accuracy survives serialization.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.campaigns import (
    CampaignError,
    CampaignSpec,
    CampaignStage,
    InvalidTransitionError,
    PrerequisiteNotMetError,
    RunLedger,
    StageMachine,
    StageState,
    get_campaign,
    ledger_root,
    register_campaign,
    resume_campaign,
    run_campaign,
)
from repro.core.config import MSROPMConfig
from repro.runtime.baselines import BaselineJob
from repro.runtime.jobs import JOB_SCHEMA_VERSION, GeneratedGraphSpec, SolveJob
from repro.runtime.runner import ExperimentRunner
from repro.runtime.scheduler import JobScheduler
from repro.workloads import default_workload, get_family
from repro.workloads.families import wmaxcut_edge_weights


# ----------------------------------------------------------------------
# Stage machine
# ----------------------------------------------------------------------
class TestStageMachine:
    PREREQS = {"s0": (), "s1": ("s0",), "s2": ("s1",), "side": ()}

    def test_initial_states(self):
        machine = StageMachine(self.PREREQS)
        assert all(state is StageState.NOT_STARTED for state in machine.states().values())
        assert machine.order == ["s0", "s1", "s2", "side"]

    def test_legal_lifecycle(self):
        machine = StageMachine(self.PREREQS)
        record = machine.transition("s0", StageState.RUNNING)
        assert record.state_transition == "not_started->running"
        record = machine.transition("s0", StageState.PASSED)
        assert record.state_transition == "running->passed"
        assert machine.state("s0") is StageState.PASSED

    def test_invalid_transitions_rejected(self):
        machine = StageMachine(self.PREREQS)
        with pytest.raises(InvalidTransitionError):
            machine.transition("s0", StageState.PASSED)  # must run first
        machine.transition("s0", StageState.RUNNING)
        with pytest.raises(InvalidTransitionError):
            machine.transition("s0", StageState.RUNNING)  # already running
        machine.transition("s0", StageState.PASSED)
        with pytest.raises(InvalidTransitionError):
            machine.transition("s0", StageState.FAILED)  # terminal

    def test_prerequisite_enforcement(self):
        machine = StageMachine(self.PREREQS)
        with pytest.raises(PrerequisiteNotMetError):
            machine.transition("s1", StageState.RUNNING)
        machine.transition("s0", StageState.RUNNING)
        machine.transition("s0", StageState.PASSED)
        machine.transition("s1", StageState.RUNNING)  # now legal

    def test_cascade_on_failure_blocks_transitive_dependents(self):
        machine = StageMachine(self.PREREQS)
        machine.transition("s0", StageState.RUNNING)
        machine.transition("s0", StageState.FAILED)
        blocked = machine.cascade_failure("s0")
        assert blocked == ["s1", "s2"]  # transitive, topological order
        assert machine.state("s1") is StageState.BLOCKED
        assert machine.state("s2") is StageState.BLOCKED
        assert machine.state("side") is StageState.NOT_STARTED  # independent

    def test_unknown_prerequisite_and_cycles_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            StageMachine({"a": ("ghost",)})
        with pytest.raises(ConfigurationError, match="cycle"):
            StageMachine({"a": ("b",), "b": ("a",)})
        with pytest.raises(ConfigurationError, match="require itself"):
            StageMachine({"a": ("a",)})


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
class TestRunLedger:
    def test_append_and_replay(self, tmp_path):
        ledger = RunLedger(tmp_path / "campaigns")
        run_id = ledger.start_run("suite", {"scale": 0.5})
        ledger.append(run_id, {"event": "stage_started", "stage": "table1"})
        ledger.append(
            run_id, {"event": "jobs_finished", "stage": "table1", "job_hashes": ["a", "b"]}
        )
        ledger.append(run_id, {"event": "stage_passed", "stage": "table1"})
        state = ledger.replay(run_id)
        assert state.campaign == "suite"
        assert state.params == {"scale": 0.5}
        assert state.stage_states == {"table1": "passed"}
        assert state.finished_jobs == {"table1": ["a", "b"]}
        assert not state.finished

    def test_torn_tail_line_is_dropped(self, tmp_path):
        """A crash mid-append leaves a partial final line; replay must cope."""
        ledger = RunLedger(tmp_path)
        run_id = ledger.start_run("suite", {})
        ledger.append(run_id, {"event": "stage_started", "stage": "s"})
        with open(ledger.path(run_id), "a", encoding="utf-8") as handle:
            handle.write('{"event": "stage_pas')  # torn write
        state = ledger.replay(run_id)
        assert state.stage_states == {"s": "running"}

    def test_append_after_torn_tail_truncates_the_fragment(self, tmp_path):
        """Appending to a journal with a torn tail must not concatenate onto
        the fragment — the uncommitted line is dropped, the new event lands
        clean, and the journal stays replayable forever after."""
        ledger = RunLedger(tmp_path)
        run_id = ledger.start_run("suite", {})
        with open(ledger.path(run_id), "a", encoding="utf-8") as handle:
            handle.write('{"event": "stage_star')  # crash mid-append
        ledger.append(run_id, {"event": "stage_started", "stage": "s"})
        ledger.append(run_id, {"event": "stage_passed", "stage": "s"})
        state = ledger.replay(run_id)
        assert state.stage_states == {"s": "passed"}
        assert '"stage_star{' not in ledger.path(run_id).read_text(encoding="utf-8")

    def test_corrupt_middle_line_raises(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.start_run("suite", {})
        with open(ledger.path(run_id), "a", encoding="utf-8") as handle:
            handle.write("{broken\n")
            handle.write(json.dumps({"event": "stage_started", "stage": "s"}) + "\n")
        with pytest.raises(ReproError, match="malformed event"):
            ledger.replay(run_id)

    def test_duplicate_run_id_rejected_and_list_runs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.start_run("suite", {}, run_id="one")
        with pytest.raises(ConfigurationError, match="already exists"):
            ledger.start_run("suite", {}, run_id="one")
        ledger.start_run("scenarios", {}, run_id="two")
        assert {state.run_id for state in ledger.list_runs()} == {"one", "two"}

    def test_unknown_run_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown campaign run"):
            RunLedger(tmp_path).replay("ghost")


# ----------------------------------------------------------------------
# Orchestrator on a tiny synthetic campaign
# ----------------------------------------------------------------------
def _toy_campaign(tmp_path: Path, fast_config: MSROPMConfig) -> CampaignSpec:
    """Two solve stages and a reporting stage, with a file-controlled failure."""
    from repro.runtime.jobs import KingsGraphSpec

    def plan_solves(context):
        return [
            SolveJob(
                spec=KingsGraphSpec(4, 4), config=fast_config, seed=7, total_iterations=2
            )
        ]

    def plan_second(context):
        if (tmp_path / "fail-second").exists():
            raise RuntimeError("injected stage failure")
        return [
            SolveJob(
                spec=KingsGraphSpec(4, 5), config=fast_config, seed=8, total_iterations=2
            )
        ]

    def reduce_report(context, results):
        first = context.outputs["first"][0]
        second = context.outputs["second"][0]
        return [list(first.accuracies), list(second.accuracies)]

    return CampaignSpec(
        name=f"toy-{uuid.uuid4().hex[:6]}",
        description="test campaign",
        stages=(
            CampaignStage(name="first", plan=plan_solves),
            CampaignStage(name="second", plan=plan_second, requires=("first",)),
            CampaignStage(
                name="report", plan=lambda context: [], reduce=reduce_report,
                requires=("first", "second"),
            ),
        ),
    )


class TestOrchestrator:
    def test_campaign_runs_stages_in_order_and_reports(self, fast_config, tmp_path):
        spec = _toy_campaign(tmp_path, fast_config)
        ledger = RunLedger(tmp_path / "ledger")
        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        result = run_campaign(spec, {}, runner=runner, ledger=ledger)
        assert [report.name for report in result.reports] == ["first", "second", "report"]
        assert all(report.state == "passed" for report in result.reports)
        assert result.final_output == result.outputs["report"]
        assert "Campaign" in result.render()
        state = ledger.replay(result.run_id)
        assert state.finished
        assert set(state.stage_states) == {"first", "second", "report"}

    def test_failed_stage_cascades_blocks_and_resume_retries(self, fast_config, tmp_path):
        spec = _toy_campaign(tmp_path, fast_config)
        register_campaign(spec)  # resume looks the campaign up by name
        ledger = RunLedger(tmp_path / "ledger")
        (tmp_path / "fail-second").touch()
        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        with pytest.raises(CampaignError, match="second"):
            run_campaign(spec, {}, runner=runner, ledger=ledger, run_id="r1")
        state = ledger.replay("r1")
        assert state.stage_states == {
            "first": "passed", "second": "failed", "report": "blocked",
        }
        # Clear the injected failure; resume retries the failed stage and
        # serves the passed stage's job from the cache.
        (tmp_path / "fail-second").unlink()
        resumed_runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        result = resume_campaign("r1", ledger, runner=resumed_runner)
        assert ledger.replay("r1").finished
        first_report = result.reports[0]
        assert first_report.state == "passed"
        assert first_report.jobs_run == 0 and first_report.served == 1

    def test_interrupted_running_stage_resumes_from_cache(self, fast_config, tmp_path):
        """A stage RUNNING at the crash re-enqueues only unfinished jobs."""
        spec = _toy_campaign(tmp_path, fast_config)
        register_campaign(spec)
        ledger = RunLedger(tmp_path / "ledger")
        cache_dir = tmp_path / "cache"
        full = run_campaign(
            spec, {}, runner=ExperimentRunner(cache_dir=cache_dir), ledger=ledger,
            run_id="complete",
        )
        # Hand-craft a run that crashed mid-stage-one (started, never passed).
        ledger.start_run(spec.name, {}, run_id="interrupted")
        ledger.append("interrupted", {"event": "stage_started", "stage": "first"})
        result = resume_campaign(
            "interrupted", ledger, runner=ExperimentRunner(cache_dir=cache_dir)
        )
        # Every job was already in the shared cache: nothing recomputes, and
        # the outputs are identical to the uninterrupted run's.
        assert sum(report.jobs_run for report in result.reports) == 0
        assert result.outputs["report"] == full.outputs["report"]
        events = [event["event"] for event in ledger.events("interrupted")]
        assert "stage_resumed" in events

    def test_resume_requires_matching_campaign(self, fast_config, tmp_path):
        spec = _toy_campaign(tmp_path, fast_config)
        ledger = RunLedger(tmp_path / "ledger")
        ledger.start_run("someone-else", {}, run_id="foreign")
        with pytest.raises(CampaignError, match="belongs to campaign"):
            run_campaign(spec, runner=ExperimentRunner(), ledger=ledger,
                         run_id="foreign", resume=True)


# ----------------------------------------------------------------------
# Kill + resume on the built-in suite campaign (the acceptance property)
# ----------------------------------------------------------------------
SUITE_PARAMS = {"scale": 0.05, "iterations": 2, "seed": 11}


def _suite_fingerprint(run_result):
    """Every rendered number of the suite campaign's final report."""
    from repro.experiments.fig5_accuracy import render_figure5

    suite = run_result.outputs["report"]
    return (
        suite.table1.render(),
        suite.table2.render(),
        render_figure5(suite.figure5),
    )


class TestKillResumeByteIdentity:
    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        """Kill the suite campaign after its first stage in a real child
        process, resume it, and compare against an uninterrupted run."""
        killed_cache = tmp_path / "killed-cache"
        script = (
            "from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign\n"
            "from repro.runtime.runner import ExperimentRunner\n"
            f"cache = {str(killed_cache)!r}\n"
            f"params = {SUITE_PARAMS!r}\n"
            "ledger = RunLedger(ledger_root(cache))\n"
            "with ExperimentRunner(cache_dir=cache) as runner:\n"
            "    run_campaign(get_campaign('suite'), params, runner=runner,\n"
            "                 ledger=ledger, run_id='killed')\n"
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(repro.__file__).resolve().parent.parent)
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env["MSROPM_CAMPAIGN_KILL_AFTER"] = "table1"
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 86, completed.stderr

        ledger = RunLedger(ledger_root(killed_cache))
        state = ledger.replay("killed")
        assert state.stage_states["table1"] == "passed"
        assert "table2" not in state.stage_states
        assert not state.finished

        with ExperimentRunner(cache_dir=killed_cache) as runner:
            resumed = resume_campaign("killed", ledger, runner=runner)
        # The completed stage's jobs came from the ledger/cache, not compute.
        table1_report = {report.name: report for report in resumed.reports}["table1"]
        assert table1_report.jobs_run == 0
        assert table1_report.served == table1_report.num_jobs > 0
        assert ledger.replay("killed").finished

        clean_cache = tmp_path / "clean-cache"
        with ExperimentRunner(cache_dir=clean_cache) as runner:
            clean = run_campaign(
                get_campaign("suite"), SUITE_PARAMS, runner=runner,
                ledger=RunLedger(ledger_root(clean_cache)),
            )
        assert _suite_fingerprint(resumed) == _suite_fingerprint(clean)

    def test_resume_restores_the_recorded_replica_chunk(self, fast_config, tmp_path):
        """Job hashes depend on replica-chunk boundaries; a resume must plan
        with the chunking the original run recorded, not the resuming
        invocation's, or passed stages silently recompute."""
        spec = _toy_campaign(tmp_path, fast_config)
        register_campaign(spec)
        cache = tmp_path / "cache"
        ledger = RunLedger(ledger_root(cache))
        with ExperimentRunner(cache_dir=cache, replica_chunk=1) as runner:
            run_campaign(spec, {}, runner=runner, ledger=ledger, run_id="chunked")
        assert ledger.replay("chunked").runtime == {"replica_chunk": 1}
        # Resume with a differently-chunked runner: the ledger's value wins.
        with ExperimentRunner(cache_dir=cache, replica_chunk=None) as runner:
            resumed = resume_campaign("chunked", ledger, runner=runner)
            assert runner.replica_chunk == 1
        assert sum(report.jobs_run for report in resumed.reports) == 0

    def test_fully_warm_resume_recomputes_nothing(self, tmp_path):
        """Resuming a finished campaign is the all-cache path: zero jobs."""
        cache = tmp_path / "cache"
        ledger = RunLedger(ledger_root(cache))
        with ExperimentRunner(cache_dir=cache) as runner:
            run_campaign(get_campaign("suite"), SUITE_PARAMS, runner=runner,
                         ledger=ledger, run_id="warm")
        with ExperimentRunner(cache_dir=cache) as runner:
            warm = resume_campaign("warm", ledger, runner=runner)
        assert sum(report.jobs_run for report in warm.reports) == 0
        assert warm.runner_stats["jobs_run"] == 0


# ----------------------------------------------------------------------
# Baseline jobs
# ----------------------------------------------------------------------
def _dimacs_baseline_jobs(fast_config, iterations=2):
    from repro.experiments.scenario_matrix import plan_baseline_jobs
    from repro.workloads.registry import expand_workloads

    instances = expand_workloads(["dimacs"], base_seed=5)
    references = [instance.reference() for instance in instances]
    return plan_baseline_jobs(
        instances, references, iterations=iterations, seed=5, config=fast_config,
        baselines=("sa", "tabu", "roim", "single_stage"),
    )


class TestBaselineJobs:
    def test_hash_is_stable_and_sensitive(self, fast_config):
        jobs = _dimacs_baseline_jobs(fast_config)
        twins = _dimacs_baseline_jobs(fast_config)
        assert [job.job_hash for job in jobs] == [job.job_hash for job in twins]
        assert len({job.job_hash for job in jobs}) == len(jobs)  # baseline in hash
        budget = _dimacs_baseline_jobs(fast_config, iterations=3)
        assert all(a.job_hash != b.job_hash for a, b in zip(jobs, budget))

    def test_bit_identical_across_worker_counts(self, fast_config):
        """The acceptance property: baseline jobs through the scheduler give
        byte-identical payloads at --workers 1 and --workers 2."""
        jobs = _dimacs_baseline_jobs(fast_config)
        serial = JobScheduler(workers=1).run(jobs)
        with JobScheduler(workers=2) as scheduler:
            parallel = scheduler.run(jobs)
        assert serial == parallel
        # Applicability: ROIM never colors, so its payloads are None here.
        by_name = {}
        for job, payload in zip(jobs, serial):
            by_name.setdefault(job.baseline, []).append(payload["accuracy"])
        assert all(value is None for value in by_name["roim"])
        assert all(value is not None for value in by_name["sa"])

    def test_baseline_jobs_cache_and_memoize(self, fast_config, tmp_path):
        jobs = _dimacs_baseline_jobs(fast_config)
        cold = ExperimentRunner(cache_dir=tmp_path)
        first = cold.run_jobs(jobs)
        assert cold.stats()["jobs_run"] == len(jobs)
        assert cold.stats()["cache_stores"] == len(jobs)
        warm = ExperimentRunner(cache_dir=tmp_path)
        second = warm.run_jobs(jobs)
        assert warm.stats()["jobs_run"] == 0
        assert warm.stats()["cache_hits"] == len(jobs)
        assert first == second

    def test_matrix_with_sharded_baselines_matches_serial(self, fast_config):
        from repro.experiments.scenario_matrix import run_scenario_matrix

        kwargs = dict(
            families=["dimacs", "maxcut"], iterations=2, seed=3, config=fast_config,
            baselines=("sa", "roim", "single_stage"),
        )
        serial = run_scenario_matrix(runner=ExperimentRunner(workers=1), **kwargs)
        parallel = run_scenario_matrix(runner=ExperimentRunner(workers=2), **kwargs)
        assert serial.render() == parallel.render()
        for a, b in zip(serial.rows, parallel.rows):
            assert a.baselines == b.baselines


# ----------------------------------------------------------------------
# Weighted max-cut family
# ----------------------------------------------------------------------
class TestWeightedMaxcut:
    def test_weights_are_seed_derived_and_deterministic(self):
        instance = default_workload("wmaxcut", base_seed=4).expand()[0]
        graph = instance.build()
        first = instance.edge_weights(graph)
        second = instance.edge_weights(graph)
        assert first == second
        assert len(first) == graph.num_edges
        assert all(1.0 <= value <= 9.0 for value in first.values())
        other = wmaxcut_edge_weights(instance.params_dict, (instance.seed or 0) + 1, graph)
        assert other != first

    def test_weight_seed_rides_in_the_job_hash(self, fast_config):
        """Per-edge weights are folded into the recipe hash via the seed."""
        spec_a = GeneratedGraphSpec.create("wmaxcut", seed=1, rows=5)
        spec_b = GeneratedGraphSpec.create("wmaxcut", seed=2, rows=5)
        job_a = SolveJob(spec=spec_a, config=fast_config, seed=9, total_iterations=2)
        job_b = SolveJob(spec=spec_b, config=fast_config, seed=9, total_iterations=2)
        assert job_a.job_hash != job_b.job_hash

    def test_weights_cross_process_stable(self):
        """Same recipe, fresh interpreter, different hash randomization:
        identical weights."""
        script = (
            "import hashlib, json\n"
            "from repro.workloads.families import wmaxcut_edge_weights\n"
            "from repro.graphs.generators import kings_graph\n"
            "weights = wmaxcut_edge_weights({'rows': 5}, 77, kings_graph(5, 5))\n"
            "payload = json.dumps(sorted((str(k), v) for k, v in weights.items()))\n"
            "print(hashlib.sha256(payload.encode()).hexdigest())\n"
        )
        import hashlib

        import repro
        from repro.graphs.generators import kings_graph

        weights = wmaxcut_edge_weights({"rows": 5}, 77, kings_graph(5, 5))
        payload = json.dumps(sorted((str(k), v) for k, v in weights.items()))
        expected = hashlib.sha256(payload.encode()).hexdigest()
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(repro.__file__).resolve().parent.parent)
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env["PYTHONHASHSEED"] = "314159"
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=env,
        )
        assert completed.stdout.strip() == expected

    def test_scenario_accuracies_bounded_by_upper_bound_reference(self, fast_config):
        from repro.experiments.scenario_matrix import run_scenario_matrix

        result = run_scenario_matrix(
            families=["wmaxcut"], iterations=2, seed=6, config=fast_config,
            baselines=("sa", "roim"),
        )
        assert result.rows
        for row in result.rows:
            assert row.kind == "maxcut"
            assert row.reference.provider == "upper-bound"
            # Total weight bounds any cut, so ratios stay in [0, 1].
            assert all(0.0 <= value <= 1.0 for value in row.msropm_accuracies)
            assert 0.0 <= row.baselines["sa"] <= 1.0
            assert 0.0 <= row.baselines["roim"] <= 1.0


# ----------------------------------------------------------------------
# K-coloring workloads (K = 8, 16)
# ----------------------------------------------------------------------
class TestKColorFamilies:
    def test_registered_with_multi_stage_depths(self):
        for name, colors, stages in (("kcolor8", 8, 3), ("kcolor16", 16, 4)):
            family = get_family(name)
            assert family.num_colors == colors
            config = MSROPMConfig(num_colors=colors)
            assert config.num_stages == stages

    def test_solves_through_scenarios(self, fast_config):
        from repro.experiments.scenario_matrix import run_scenario_matrix

        result = run_scenario_matrix(
            families=["kcolor8", "kcolor16"], iterations=1, seed=2,
            config=fast_config, baselines=("sa",),
        )
        by_family = {row.family: row for row in result.rows}
        assert by_family["kcolor8"].num_colors == 8
        assert by_family["kcolor16"].num_colors == 16
        for row in by_family.values():
            assert all(0.0 <= value <= 1.0 for value in row.msropm_accuracies)
            assert row.baselines["sa"] is not None


# ----------------------------------------------------------------------
# Raw (unclipped) stage-1 accuracy
# ----------------------------------------------------------------------
class TestRawStage1Accuracy:
    def test_raw_exceeds_clip_when_beating_the_reference(self, fast_config):
        from repro.core.machine import MSROPM
        from repro.graphs.generators import kings_graph

        # An artificially tiny reference cut forces raw > 1 while the paper
        # metric stays clipped at 1.0.
        machine = MSROPM(kings_graph(4, 4), fast_config, stage1_reference_cut=1)
        result = machine.solve(iterations=2, seed=3)
        assert all(item.stage1_accuracy <= 1.0 for item in result.iterations)
        assert all(
            item.stage1_raw_accuracy >= item.stage1_accuracy for item in result.iterations
        )
        assert result.stage1_raw_accuracies.max() > 1.0

    def test_raw_round_trips_through_results_io(self, fast_config):
        from repro.analysis.results_io import solve_result_from_dict, solve_result_to_dict
        from repro.core.machine import MSROPM
        from repro.graphs.generators import kings_graph

        machine = MSROPM(kings_graph(4, 4), fast_config, stage1_reference_cut=1)
        result = machine.solve(iterations=2, seed=3)
        rebuilt = solve_result_from_dict(json.loads(json.dumps(solve_result_to_dict(result))))
        assert list(rebuilt.stage1_raw_accuracies) == list(result.stage1_raw_accuracies)
        assert list(rebuilt.stage1_accuracies) == list(result.stage1_accuracies)

    def test_schema_bumped_for_the_new_field(self):
        from repro.analysis.results_io import FORMAT_VERSION

        # Raw accuracies bumped these to 2/3; the precision tier bumped them
        # again (tier in the job hash, metadata in the payload); the compact
        # array layout bumped the results format once more.
        assert JOB_SCHEMA_VERSION == 3
        assert FORMAT_VERSION == 5


# ----------------------------------------------------------------------
# Built-in scenarios campaign
# ----------------------------------------------------------------------
class TestScenariosCampaign:
    def test_cli_shaped_params_with_none_values_take_defaults(self, tmp_path):
        """The CLI passes unset knobs as explicit None values; the campaign
        planners must apply their defaults to those, not crash on int(None)."""
        spec = get_campaign("scenarios")
        params = {"families": ["dimacs"], "iterations": None, "seed": None,
                  "engine": "batched", "baselines": ["sa"]}
        with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
            result = run_campaign(
                spec, params, runner=runner,
                ledger=RunLedger(ledger_root(tmp_path / "cache")),
            )
        assert result.outputs["report"].iterations == 5  # the default budget

    def test_unknown_params_rejected(self, tmp_path):
        """A flag the campaign would silently ignore must fail loudly."""
        with pytest.raises(CampaignError, match="does not accept parameter"):
            run_campaign(
                get_campaign("scenarios"), {"scale": 0.5, "seed": 1},
                runner=ExperimentRunner(),
            )
        with pytest.raises(CampaignError, match="does not accept parameter"):
            run_campaign(
                get_campaign("suite"), {"families": ["er"], "seed": 1},
                runner=ExperimentRunner(),
            )

    def test_report_requires_both_roots_and_resolves_from_memo(self, tmp_path):
        spec = get_campaign("scenarios")
        assert spec.stage("report").requires == ("solves", "baselines")
        params = {"families": ["dimacs"], "iterations": 2, "seed": 4,
                  "baselines": ["sa"]}
        with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
            result = run_campaign(
                spec, params, runner=runner,
                ledger=RunLedger(ledger_root(tmp_path / "cache")),
            )
        matrix = result.outputs["report"]
        assert len(matrix.rows) == 3  # myciel3 + myciel4 + myciel5
        reports = {report.name: report for report in result.reports}
        assert reports["solves"].jobs_run == reports["solves"].num_jobs == 3
        assert reports["baselines"].num_jobs == 3  # one per (instance, baseline)
        # The report stage re-assembles the matrix purely from the memo.
        assert reports["report"].jobs_run == 0
