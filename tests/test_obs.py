"""Tests for the observability layer: metrics spine, sinks, projections,
the ledger follower, the watch/report CLI, and the service's /metrics.

The load-bearing properties:

* the metrics registry is thread-safe, deterministic to snapshot, and
  injectable-clock driven (no wall-clock in timings),
* sink delivery is best-effort — a raising sink increments counters and
  never propagates into the emitting run,
* projections are pure functions of ledger events: same journal, same
  rendered report, byte for byte,
* the follower consumes only committed lines, survives shrunken files and
  malformed lines, and never raises at a torn tail,
* ``campaign watch --once`` / ``campaign report`` work end-to-end from a
  journal alone, and ``GET /metrics`` serves the spine's snapshot.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import pytest

from repro.campaigns import RunLedger, run_campaign
from repro.cli import main
from repro.obs import (
    CallbackSink,
    CampaignProjection,
    JsonlFileSink,
    LedgerFollower,
    MetricsRegistry,
    Sink,
    SinkEmitError,
    SinkRouter,
    WebhookSink,
    get_metrics,
    project_state,
    render_report,
    render_watch,
    set_metrics,
)
from repro.runtime.jobs import Job
from repro.runtime.runner import ExperimentRunner


@dataclass(frozen=True)
class AddJob(Job):
    """A trivially-verifiable cacheable job: payload is the sum of two ints."""

    a: int
    b: int

    job_kind = "test-add"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "a": self.a, "b": self.b}

    @property
    def label(self) -> str:
        return f"add-{self.a}-{self.b}"

    def execute(self):
        return {"sum": self.a + self.b}

    def decode(self, payload):
        return payload


@pytest.fixture()
def fresh_metrics():
    """Isolate the process-global registry for the duration of one test."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)


# ----------------------------------------------------------------------
# Metrics spine
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        assert registry.counter("x") == 0
        assert registry.inc("x") == 1
        assert registry.inc("x", 4) == 5
        assert registry.counter("x") == 5
        assert registry.gauge("depth") is None
        registry.set_gauge("depth", 3)
        assert registry.gauge("depth") == 3.0

    def test_timer_uses_injected_clock(self):
        ticks = iter([10.0, 12.5])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with registry.timer("op"):
            pass
        timing = registry.snapshot()["timings"]["op"]
        assert timing["count"] == 1
        assert timing["total_s"] == pytest.approx(2.5)
        assert timing["min_s"] == pytest.approx(2.5)
        assert timing["buckets"]["le_2.5"] == 1

    def test_timer_records_raising_body(self):
        ticks = iter([0.0, 1.0])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        with pytest.raises(RuntimeError):
            with registry.timer("op"):
                raise RuntimeError("boom")
        assert registry.snapshot()["timings"]["op"]["count"] == 1

    def test_observe_bucket_boundaries(self):
        registry = MetricsRegistry()
        registry.observe("op", 0.0005)   # le_0.001
        registry.observe("op", 0.05)     # le_0.1
        registry.observe("op", 100.0)    # le_inf
        buckets = registry.snapshot()["timings"]["op"]["buckets"]
        assert buckets["le_0.001"] == 1
        assert buckets["le_0.1"] == 1
        assert buckets["le_inf"] == 1

    def test_snapshot_is_deterministic_and_json_stable(self):
        registry = MetricsRegistry()
        registry.inc("z.late")
        registry.inc("a.early", 2)
        registry.set_gauge("g", 1.5)
        first = json.dumps(registry.snapshot(), sort_keys=True)
        second = json.dumps(registry.snapshot(), sort_keys=True)
        assert first == second
        assert list(registry.snapshot()["counters"]) == ["a.early", "z.late"]

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(500):
                registry.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n") == 4000

    def test_global_swap_and_reset(self, fresh_metrics):
        get_metrics().inc("swapped")
        assert fresh_metrics.counter("swapped") == 1
        fresh_metrics.reset()
        assert fresh_metrics.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_router_routes_by_kind(self, fresh_metrics):
        seen_all, seen_failures = [], []
        router = (
            SinkRouter()
            .add(CallbackSink(seen_all.append))
            .add(CallbackSink(seen_failures.append), kinds=["stage_failed"])
        )
        router.emit({"event": "stage_started", "stage": "s"})
        router.emit({"event": "stage_failed", "stage": "s", "error": "boom"})
        assert [event["event"] for event in seen_all] == [
            "stage_started",
            "stage_failed",
        ]
        assert [event["event"] for event in seen_failures] == ["stage_failed"]
        assert router.delivered == 3
        assert fresh_metrics.counter("sinks.delivered") == 3

    def test_sink_failure_is_counted_not_raised(self, fresh_metrics):
        class ExplodingSink(Sink):
            def emit(self, event):
                raise RuntimeError("sink down")

        received = []
        router = SinkRouter().add(ExplodingSink()).add(CallbackSink(received.append))
        router.emit({"event": "stage_passed", "stage": "s"})  # must not raise
        assert router.errors == 1
        assert "sink down" in router.stats()["last_error"]
        assert len(received) == 1  # the healthy sink still got the event
        assert fresh_metrics.counter("sinks.errors") == 1

    def test_jsonl_sink_appends_committed_lines(self, tmp_path):
        sink = JsonlFileSink(tmp_path / "events.jsonl")
        sink.emit({"event": "a", "n": 1})
        sink.emit({"event": "b", "n": 2})
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]
        assert sink.delivered == 2

    def test_webhook_sink_posts_json(self):
        requests = []

        def opener(request, timeout):
            requests.append((request, timeout))
            return None

        sink = WebhookSink("http://example.invalid/hook", timeout=2.0, opener=opener)
        sink.emit({"event": "campaign_finished"})
        request, timeout = requests[0]
        assert timeout == 2.0
        assert request.get_method() == "POST"
        assert json.loads(request.data.decode("utf-8")) == {
            "event": "campaign_finished"
        }

    def test_webhook_rejects_non_http_urls(self):
        with pytest.raises(SinkEmitError, match="http"):
            WebhookSink("file:///etc/passwd")


# ----------------------------------------------------------------------
# Projection + renderers
# ----------------------------------------------------------------------
def _synthetic_events(run_id="run1"):
    return [
        {"event": "campaign_started", "campaign": "toy", "params": {"seed": 1},
         "ledger_schema": 2, "ts": 100.0},
        {"event": "stage_started", "stage": "s1", "ts": 101.0},
        {"event": "stage_planned", "stage": "s1", "num_jobs": 4, "ts": 101.0},
        {"event": "jobs_progress", "stage": "s1", "job_hashes": ["a", "b"], "ts": 103.0},
        {"event": "jobs_progress", "stage": "s1", "job_hashes": ["b", "c"], "ts": 105.0},
    ]


class TestCampaignProjection:
    def test_folds_progress_with_dedup(self):
        projection = CampaignProjection("run1").apply_all(_synthetic_events())
        (stage,) = projection.stages
        assert stage.state == "running"
        assert stage.planned == 4
        assert stage.done == 3  # "b" deduplicated
        assert stage.completion == pytest.approx(0.75)
        assert projection.status == "running"

    def test_throughput_and_eta_from_event_timestamps_only(self):
        projection = CampaignProjection("run1").apply_all(_synthetic_events())
        # 3 unique jobs over ts 103..105 -> 1.5 jobs/s; 1 job remains -> 2/3 s.
        assert projection.throughput() == pytest.approx(1.5)
        assert projection.eta_seconds() == pytest.approx(1 / 1.5)

    def test_terminal_states(self):
        events = _synthetic_events() + [
            {"event": "stage_failed", "stage": "s1", "error": "boom", "ts": 106.0}
        ]
        projection = CampaignProjection("run1").apply_all(events)
        assert projection.failed and projection.terminal
        assert projection.eta_seconds() == 0.0
        assert "boom" in render_watch(projection)

    def test_render_report_is_byte_identical(self):
        events = _synthetic_events()
        first = render_report(CampaignProjection("run1").apply_all(events))
        second = render_report(CampaignProjection("run1").apply_all(events))
        assert first == second
        assert "75%" in first

    def test_project_state_from_replayed_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.start_run("toy", {"seed": 3})
        ledger.append(run_id, {"event": "stage_started", "stage": "s"})
        ledger.append(run_id, {"event": "stage_planned", "stage": "s", "num_jobs": 1})
        ledger.append(run_id, {"event": "jobs_progress", "stage": "s", "job_hashes": ["h"]})
        ledger.append(run_id, {"event": "stage_passed", "stage": "s"})
        ledger.append(run_id, {"event": "campaign_finished"})
        projection = project_state(ledger.replay(run_id))
        assert projection.finished
        assert projection.jobs_done == 1
        assert projection.stages[0].state == "passed"


# ----------------------------------------------------------------------
# LedgerFollower
# ----------------------------------------------------------------------
class TestLedgerFollower:
    def test_incremental_polling(self, tmp_path):
        path = tmp_path / "run.jsonl"
        follower = LedgerFollower(path)
        assert follower.poll() == []  # file does not exist yet
        path.write_text('{"event": "a"}\n')
        assert [event["event"] for event in follower.poll()] == ["a"]
        assert follower.poll() == []
        with open(path, "a") as handle:
            handle.write('{"event": "b"}\n')
        assert [event["event"] for event in follower.poll()] == ["b"]

    def test_torn_tail_invisible_until_committed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"')  # no trailing newline
        follower = LedgerFollower(path)
        assert [event["event"] for event in follower.poll()] == ["a"]
        with open(path, "a") as handle:
            handle.write("}\n")  # the newline commits it
        assert [event["event"] for event in follower.poll()] == ["b"]

    def test_shrunken_file_resets(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\n')
        follower = LedgerFollower(path)
        assert len(follower.poll()) == 2
        path.write_text('{"event": "fresh"}\n')  # rotation/tampering
        events = follower.poll()
        assert follower.truncations == 1
        assert [event["event"] for event in events] == ["fresh"]

    def test_malformed_committed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "a"}\nnot json\n[1, 2]\n{"event": "b"}\n')
        follower = LedgerFollower(path)
        assert [event["event"] for event in follower.poll()] == ["a", "b"]
        assert follower.malformed == 2


# ----------------------------------------------------------------------
# Runtime progress plumbing + orchestrator events
# ----------------------------------------------------------------------
class TestProgressPlumbing:
    def test_run_jobs_reports_cached_and_computed(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        jobs = [AddJob(1, 2), AddJob(3, 4)]
        runner.run_jobs(jobs)

        seen = []
        runner2 = ExperimentRunner(cache_dir=tmp_path / "cache")
        runner2.run_jobs(
            [AddJob(1, 2), AddJob(5, 6)], progress=lambda job: seen.append(job.label)
        )
        # add-1-2 resolves from disk cache, add-5-6 computes; both announce.
        assert sorted(seen) == ["add-1-2", "add-5-6"]

    def test_scheduler_metrics(self, fresh_metrics, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        runner.run_jobs([AddJob(1, 1), AddJob(2, 2)])
        assert fresh_metrics.counter("scheduler.batches") == 1
        assert fresh_metrics.counter("scheduler.jobs_dispatched") == 2
        assert fresh_metrics.counter("cache.stores") == 2
        snapshot = fresh_metrics.snapshot()
        assert snapshot["timings"]["scheduler.batch_seconds"]["count"] == 1


def _record_campaign(tmp_path, sinks=None):
    """Run a two-stage toy campaign against a real ledger; returns (run, ledger)."""
    from repro.campaigns import CampaignSpec, CampaignStage

    spec = CampaignSpec(
        name="toy-obs",
        description="obs test campaign",
        stages=(
            CampaignStage(name="first", plan=lambda context: [AddJob(1, 2), AddJob(3, 4)]),
            CampaignStage(
                name="second", plan=lambda context: [AddJob(5, 6)], requires=("first",)
            ),
        ),
        params=(),
    )
    ledger = RunLedger(tmp_path / "campaigns")
    runner = ExperimentRunner(cache_dir=tmp_path)
    run = run_campaign(spec, {}, runner=runner, ledger=ledger, sinks=sinks)
    return run, ledger


class TestOrchestratorEvents:
    def test_ledger_gains_planned_and_progress_events(self, tmp_path):
        run, ledger = _record_campaign(tmp_path)
        kinds = [event["event"] for event in ledger.events(run.run_id)]
        assert "stage_planned" in kinds
        assert "jobs_progress" in kinds
        state = ledger.replay(run.run_id)
        assert state.planned_jobs == {"first": 2, "second": 1}
        assert state.num_finished_jobs == 3

    def test_sinks_receive_every_recorded_event(self, tmp_path):
        received = []
        router = SinkRouter().add(CallbackSink(received.append))
        run, ledger = _record_campaign(tmp_path, sinks=router)
        sink_kinds = [event["event"] for event in received]
        ledger_kinds = [event["event"] for event in ledger.events(run.run_id)]
        assert sink_kinds == ledger_kinds
        assert all(event["run_id"] == run.run_id for event in received)
        assert router.errors == 0


# ----------------------------------------------------------------------
# CLI: watch / report / list corruption flags
# ----------------------------------------------------------------------
class TestObservabilityCli:
    def test_watch_once_renders_frame(self, tmp_path, capsys):
        run, _ = _record_campaign(tmp_path)
        rc = main(
            ["campaign", "watch", run.run_id, "--cache-dir", str(tmp_path), "--once"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "finished" in out
        assert "first" in out and "second" in out
        assert "100%" in out

    def test_watch_unknown_run(self, tmp_path, capsys):
        rc = main(["campaign", "watch", "ghost", "--cache-dir", str(tmp_path), "--once"])
        assert rc == 1
        assert "unknown campaign run" in capsys.readouterr().err

    def test_report_byte_identical_and_cache_presence(self, tmp_path, capsys):
        run, _ = _record_campaign(tmp_path)
        assert main(["campaign", "report", run.run_id, "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert main(["campaign", "report", run.run_id, "--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "cache: 3 of 3 recorded job result(s) present" in first

    def test_report_metrics_out_snapshot(self, tmp_path, capsys):
        run, _ = _record_campaign(tmp_path)
        out_path = tmp_path / "metrics.json"
        rc = main(
            [
                "campaign", "report", run.run_id,
                "--cache-dir", str(tmp_path),
                "--metrics-out", str(out_path),
            ]
        )
        assert rc == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["metrics_version"] == 1
        assert set(snapshot) >= {"counters", "gauges", "timings"}

    def test_list_flags_corrupt_journals(self, tmp_path, capsys):
        run, ledger = _record_campaign(tmp_path)
        (ledger.root / "rotted.jsonl").write_text("not json at all\n")
        rc = main(["campaign", "list", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert run.run_id in captured.out
        assert "CORRUPT" in captured.out
        assert "rotted" in captured.err

    def test_run_with_event_log_sink(self, tmp_path, capsys):
        event_log = tmp_path / "events.jsonl"
        rc = main(
            [
                "campaign", "run", "suite",
                "--scale", "0.05", "--iterations", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--event-log", str(event_log),
            ]
        )
        assert rc == 0
        kinds = [
            json.loads(line)["event"] for line in event_log.read_text().splitlines()
        ]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert "stage_planned" in kinds


# ----------------------------------------------------------------------
# Service: GET /metrics and drain liveness in /v1/stats
# ----------------------------------------------------------------------
class TestServiceMetrics:
    def _service(self, tmp_path):
        from repro.service.server import SolverService

        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        return SolverService(runner, tmp_path / "cache"), runner

    def test_metrics_endpoint(self, fresh_metrics, tmp_path):
        service, runner = self._service(tmp_path)
        runner.run_jobs([AddJob(1, 2)])
        status, payload, _ = service.handle("GET", "/metrics", None)
        assert status == 200
        assert payload["metrics"]["counters"]["scheduler.batches"] == 1
        assert payload["runner"]["jobs_run"] == 1
        # The v1-prefixed alias serves the same snapshot.
        status, alias, _ = service.handle("GET", "/v1/metrics", None)
        assert status == 200 and "metrics" in alias

    def test_metrics_requires_get(self, tmp_path):
        service, _ = self._service(tmp_path)
        status, _, _ = service.handle("POST", "/metrics", {})
        assert status == 405

    def test_stats_reports_queue_depth_and_drain_liveness(self, tmp_path):
        service, runner = self._service(tmp_path)
        status, payload, _ = service.handle("GET", "/v1/stats", None)
        assert status == 200
        assert payload["runner"]["queue_depth"] == 0
        assert payload["runner"]["drain_alive"] == 0
        ticket = runner.submit(AddJob(9, 9))
        assert runner.wait([ticket], timeout=30)
        status, payload, _ = service.handle("GET", "/v1/stats", None)
        assert payload["runner"]["drain_alive"] == 1
        runner.close()
