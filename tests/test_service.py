"""Tests for the solver service: tickets, coalescing, backpressure, protocol.

The satellite contract these tests pin down:

* concurrent same-hash submissions yield ONE ticket and ONE execution
  (asserted through the runner's own counters),
* resubmission after completion is a pure memo/cache fetch — never a
  recomputation,
* rate-limit and backpressure responses are deterministic under a seeded
  request script (fake clock, scripted submissions, exact status sequence).
"""

import asyncio
import json
import threading

import pytest

from repro.core.config import MSROPMConfig
from repro.runtime.jobs import KingsGraphSpec, SolveJob
from repro.runtime.runner import (
    TICKET_DONE,
    TICKET_FAILED,
    TICKET_PENDING,
    ExperimentRunner,
    SubmitQueueFull,
    Ticket,
)
from repro.service.client import ServiceClient, ServiceError, discover_endpoint
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    build_jobs,
    encode_ticket,
)
from repro.service.ratelimit import RateLimiter
from repro.service.server import SolverService, serve
from repro.service.state import SERVICE_STATE_VERSION, ServiceState


def _job(config, seed=1, rows=4, iterations=2):
    return SolveJob(
        spec=KingsGraphSpec(rows, rows),
        config=config,
        seed=seed,
        total_iterations=iterations,
    )


class _FakeClock:
    """A hand-advanced monotonic clock for deterministic limiter tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Runner-level ticket semantics.
# ----------------------------------------------------------------------
class TestTicketSubmission:
    def test_concurrent_same_hash_submissions_execute_once(self, fast_config):
        """N racing submissions of one hash → one ticket id, one execution."""
        threads = 5
        barrier = threading.Barrier(threads)
        tickets = [None] * threads

        with ExperimentRunner(workers=1) as runner:
            def submit(slot):
                # Each thread builds its *own* job object: coalescing is by
                # content hash, not object identity.
                job = _job(fast_config)
                barrier.wait()
                tickets[slot] = runner.submit(job)

            workers = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(threads)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()

            assert all(ticket is not None for ticket in tickets)
            assert len({ticket.ticket_id for ticket in tickets}) == 1
            assert runner.wait(tickets, timeout=60.0)

            stats = runner.stats()
            assert stats["jobs_run"] == 1
            assert stats["tickets_issued"] == 1
            # The 4 non-first submissions either coalesced onto the in-flight
            # ticket or (if they lost the race past completion) were served
            # from the finished one — never a second execution.
            assert stats["tickets_coalesced"] + stats["tickets_cache_served"] == threads - 1
            assert stats["queue_depth"] == 0

        ticket = tickets[0]
        assert ticket.state == TICKET_DONE
        assert ticket.ticket_id == ticket.job.job_hash

    def test_submitted_result_matches_blocking_run(self, fast_config):
        """The ticket path and run_jobs produce the identical persisted form."""
        job = _job(fast_config)
        with ExperimentRunner(workers=1) as blocking:
            direct = blocking.run_jobs([job])[0]
        with ExperimentRunner(workers=1) as runner:
            ticket = runner.submit(_job(fast_config))
            assert runner.wait([ticket], timeout=60.0)
        assert job.encode(ticket.result) == job.encode(direct)

    def test_resubmission_after_completion_is_pure_cache_fetch(
        self, fast_config, tmp_path
    ):
        """A fresh runner over the same cache answers without executing."""
        cache_dir = tmp_path / "cache"
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as first:
            ticket = first.submit(_job(fast_config))
            assert first.wait([ticket], timeout=60.0)
            assert first.stats()["jobs_run"] == 1

        with ExperimentRunner(workers=1, cache_dir=cache_dir) as second:
            resubmitted = second.submit(_job(fast_config))
            assert resubmitted.state == TICKET_DONE
            assert resubmitted.source == "cache"
            stats = second.stats()
            assert stats["jobs_run"] == 0
            assert stats["tickets_cache_served"] == 1
        assert _job(fast_config).encode(resubmitted.result) == _job(
            fast_config
        ).encode(ticket.result)

    def test_memo_answers_within_one_runner(self, fast_config):
        """Same runner, second submission after completion: memo, no rerun."""
        with ExperimentRunner(workers=1) as runner:
            first = runner.submit(_job(fast_config))
            assert runner.wait([first], timeout=60.0)
            again = runner.submit(_job(fast_config))
            assert again is first  # literally the same finished ticket
            assert runner.stats()["jobs_run"] == 1
            assert runner.stats()["tickets_cache_served"] == 1

    def test_uncacheable_jobs_get_anonymous_tickets(self, fast_config):
        """Seedless jobs cannot coalesce — each submission is its own ticket."""
        with ExperimentRunner(workers=1) as runner:
            a = runner.submit(_job(fast_config, seed=None))
            b = runner.submit(_job(fast_config, seed=None))
            assert a.ticket_id != b.ticket_id
            assert a.ticket_id.startswith("anon-")
            assert runner.wait([a, b], timeout=60.0)
            assert runner.stats()["jobs_run"] == 2
            assert runner.stats()["tickets_coalesced"] == 0

    def test_failed_ticket_reenqueues_under_same_id(self, fast_config):
        """A failed hash is retryable: resubmission runs a fresh attempt."""
        with ExperimentRunner(workers=1) as runner:
            real_run = runner.scheduler.run
            runner.scheduler.run = lambda jobs, progress=None: (_ for _ in ()).throw(
                RuntimeError("injected execution failure")
            )
            try:
                ticket = runner.submit(_job(fast_config))
                assert runner.wait([ticket], timeout=60.0)
                assert ticket.state == TICKET_FAILED
                assert "injected execution failure" in ticket.error
            finally:
                runner.scheduler.run = real_run

            retry = runner.submit(_job(fast_config))
            assert retry is not ticket
            assert retry.ticket_id == ticket.ticket_id
            assert runner.wait([retry], timeout=60.0)
            assert retry.state == TICKET_DONE
            assert runner.stats()["jobs_run"] == 1

    def test_poll_looks_up_by_ticket_id(self, fast_config):
        with ExperimentRunner(workers=1) as runner:
            assert runner.poll("missing") is None
            ticket = runner.submit(_job(fast_config))
            assert runner.poll(ticket.ticket_id) is ticket
            assert runner.wait([ticket], timeout=60.0)

    def test_close_fails_queued_tickets_and_runner_recovers(self, fast_config):
        """Tickets still queued at close() fail cleanly; resubmission works."""
        release = threading.Event()
        with ExperimentRunner(workers=1) as runner:
            real_run = runner.scheduler.run

            def blocking_run(jobs, progress=None):
                release.wait(timeout=60.0)
                return real_run(jobs, progress)

            runner.scheduler.run = blocking_run
            first = runner.submit(_job(fast_config, seed=1))
            # Give the drain thread time to take the first batch so the
            # second submission stays queued behind the blocked execution.
            deadline = 100
            while runner.poll(first.ticket_id).state == TICKET_PENDING and deadline:
                deadline -= 1
                threading.Event().wait(0.01)
            queued = runner.submit(_job(fast_config, seed=2))
            release.set()
            runner.scheduler.run = real_run
            runner.close()
            assert first.finished
            if queued.state == TICKET_FAILED:
                assert "runner closed" in queued.error
            # A closed runner accepts new submissions (drain thread restarts).
            retry = runner.submit(_job(fast_config, seed=2))
            assert runner.wait([retry], timeout=60.0)
            assert retry.state == TICKET_DONE

    def test_submit_queue_full_is_deterministic_backpressure(self, fast_config):
        """max_pending bounds in-flight work; coalescing is exempt."""
        release = threading.Event()
        started = threading.Event()
        with ExperimentRunner(workers=1, max_pending=1) as runner:
            real_run = runner.scheduler.run

            def blocking_run(jobs, progress=None):
                started.set()
                release.wait(timeout=60.0)
                return real_run(jobs, progress)

            runner.scheduler.run = blocking_run
            try:
                first = runner.submit(_job(fast_config, seed=1))
                assert started.wait(timeout=60.0)
                # A *distinct* hash cannot be admitted past the cap ...
                with pytest.raises(SubmitQueueFull) as excinfo:
                    runner.submit(_job(fast_config, seed=2))
                assert excinfo.value.depth == 1
                assert excinfo.value.limit == 1
                # ... but resubmitting the in-flight hash coalesces freely.
                again = runner.submit(_job(fast_config, seed=1))
                assert again is first
                assert again.coalesced == 1
            finally:
                release.set()
                runner.scheduler.run = real_run
            assert runner.wait([first], timeout=60.0)
            # With the queue drained the rejected hash is admitted.
            second = runner.submit(_job(fast_config, seed=2))
            assert runner.wait([second], timeout=60.0)
            assert second.state == TICKET_DONE


# ----------------------------------------------------------------------
# The rate limiter (pure, fake-clocked, fully deterministic).
# ----------------------------------------------------------------------
class TestRateLimiter:
    def test_burst_then_refill_sequence(self):
        clock = _FakeClock()
        limiter = RateLimiter(rate=1.0, burst=2.0, clock=clock)
        assert limiter.try_acquire("alice") == (True, 0.0)
        assert limiter.try_acquire("alice") == (True, 0.0)
        ok, retry_after = limiter.try_acquire("alice")
        assert not ok and retry_after == pytest.approx(1.0)
        clock.advance(0.5)
        ok, retry_after = limiter.try_acquire("alice")
        assert not ok and retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        assert limiter.try_acquire("alice") == (True, 0.0)
        assert limiter.stats() == {"allowed": 3, "rejected": 2, "clients": 1}

    def test_clients_are_isolated(self):
        clock = _FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.try_acquire("alice")[0]
        assert not limiter.try_acquire("alice")[0]
        assert limiter.try_acquire("bob")[0]  # bob's bucket is untouched
        assert limiter.stats()["clients"] == 2

    def test_zero_rate_never_refills(self):
        clock = _FakeClock()
        limiter = RateLimiter(rate=0.0, burst=1.0, clock=clock)
        assert limiter.try_acquire("alice")[0]
        ok, retry_after = limiter.try_acquire("alice")
        assert not ok and retry_after == float("inf")
        clock.advance(1e6)
        assert not limiter.try_acquire("alice")[0]

    def test_oversized_spend_reports_full_bucket_refill(self):
        clock = _FakeClock()
        limiter = RateLimiter(rate=2.0, burst=4.0, clock=clock)
        assert limiter.try_acquire("alice", tokens=4.0)[0]
        ok, retry_after = limiter.try_acquire("alice", tokens=100.0)
        assert not ok
        assert retry_after == pytest.approx(4.0 / 2.0)  # time to a full bucket

    def test_bucket_never_overflows_burst(self):
        clock = _FakeClock()
        limiter = RateLimiter(rate=10.0, burst=2.0, clock=clock)
        assert limiter.try_acquire("alice", tokens=2.0)[0]
        clock.advance(1e3)  # far more than enough to refill
        assert limiter.try_acquire("alice", tokens=2.0)[0]
        assert not limiter.try_acquire("alice", tokens=0.5)[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(burst=0.0)
        with pytest.raises(ValueError):
            RateLimiter(rate=-1.0)


# ----------------------------------------------------------------------
# The protocol: spec → job parity with the CLI paths.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_solve_spec_hash_matches_cli_constructed_job(self):
        """A service 'solve' spec addresses the exact hash msropm solve would."""
        jobs = build_jobs(
            [{"kind": "solve", "rows": 4, "colors": 4, "seed": 3, "iterations": 2}]
        )
        assert len(jobs) == 1
        cli_job = SolveJob(
            spec=KingsGraphSpec(4, 4),
            config=MSROPMConfig(num_colors=4, seed=3, precision="exact"),
            seed=3,
            total_iterations=2,
        )
        assert jobs[0].job_hash == cli_job.job_hash

    def test_scenarios_spec_matches_matrix_planner(self):
        """A 'scenarios' spec expands through the CLI's own planner."""
        from repro.experiments.scenario_matrix import plan_scenario_requests
        from repro.workloads.registry import expand_workloads

        jobs = build_jobs(
            [{"kind": "scenarios", "families": ["er"], "iterations": 2, "seed": 7}]
        )
        requests = plan_scenario_requests(
            expand_workloads(["er"], base_seed=7), iterations=2, seed=7,
            precision="exact",
        )
        assert len(jobs) == len(requests) > 0
        planner_hashes = [
            SolveJob(
                spec=request.spec,
                config=request.config,
                seed=request.seed,
                total_iterations=request.iterations,
            ).job_hash
            for request in requests
        ]
        assert [job.job_hash for job in jobs] == planner_hashes

    def test_spec_validation_errors(self):
        with pytest.raises(ProtocolError, match="no jobs"):
            build_jobs([])
        with pytest.raises(ProtocolError, match="JSON object"):
            build_jobs(["not a dict"])
        with pytest.raises(ProtocolError, match="unknown job kind"):
            build_jobs([{"kind": "mystery"}])
        with pytest.raises(ProtocolError, match="'seed' must be int"):
            build_jobs([{"kind": "solve", "seed": True}])
        with pytest.raises(ProtocolError, match="'colors' must be int"):
            build_jobs([{"kind": "solve", "colors": "four"}])
        with pytest.raises(ProtocolError, match="list of strings"):
            build_jobs([{"kind": "scenarios", "families": [1, 2]}])

    def test_encode_ticket_shapes(self, fast_config):
        job = _job(fast_config)
        pending = Ticket(ticket_id=job.job_hash, job=job)
        encoded = encode_ticket(pending)
        assert encoded == {
            "ticket_id": job.job_hash,
            "state": TICKET_PENDING,
            "source": "computed",
            "coalesced": 0,
        }
        failed = Ticket(
            ticket_id=job.job_hash, job=job, state=TICKET_FAILED, error="boom"
        )
        assert encode_ticket(failed)["error"] == "boom"
        # A result is only attached for done tickets, and only on request.
        assert "result" not in encode_ticket(failed, include_result=True)


# ----------------------------------------------------------------------
# The service request handler (transport-free, deterministic).
# ----------------------------------------------------------------------
class TestSolverServiceHandle:
    def _service(self, tmp_path, runner, **kwargs):
        return SolverService(runner, tmp_path / "cache", **kwargs)

    def _solve_spec(self, seed=1):
        return {
            "kind": "solve", "rows": 4, "colors": 4,
            "seed": seed, "iterations": 1,
        }

    def _submit_body(self, *specs, client="tester"):
        return {
            "protocol": PROTOCOL_VERSION,
            "client": client,
            "jobs": list(specs),
        }

    def test_healthz_and_unknown_paths(self, tmp_path):
        with ExperimentRunner(workers=1) as runner:
            service = self._service(tmp_path, runner)
            status, payload, _ = service.handle("GET", "/v1/healthz", None)
            assert (status, payload) == (200, {"ok": True, "protocol": PROTOCOL_VERSION})
            status, _, _ = service.handle("POST", "/v1/healthz", None)
            assert status == 405
            status, _, _ = service.handle("GET", "/v1/nope", None)
            assert status == 404
            status, _, _ = service.handle("GET", "/v1/tickets/unknown", None)
            assert status == 404

    def test_malformed_submissions_are_400(self, tmp_path):
        with ExperimentRunner(workers=1) as runner:
            service = self._service(tmp_path, runner)
            for body in (
                None,
                {"protocol": 99, "client": "x", "jobs": [self._solve_spec()]},
                {"protocol": PROTOCOL_VERSION, "client": "", "jobs": []},
                {"protocol": PROTOCOL_VERSION, "client": "x", "jobs": "nope"},
                {"protocol": PROTOCOL_VERSION, "client": "x", "jobs": []},
                {"protocol": PROTOCOL_VERSION, "client": "x", "jobs": [{"kind": "?"}]},
            ):
                status, payload, _ = service.handle("POST", "/v1/submit", body)
                assert status == 400, body
                assert "error" in payload

    def test_submit_poll_fetch_lifecycle(self, tmp_path):
        with ExperimentRunner(workers=1, cache_dir=tmp_path / "cache") as runner:
            service = self._service(tmp_path, runner)
            status, payload, _ = service.handle(
                "POST", "/v1/submit", self._submit_body(self._solve_spec())
            )
            assert status == 200
            (ticket,) = payload["tickets"]
            ticket_id = ticket["ticket_id"]
            assert len(ticket_id) == 64  # the job content hash
            assert runner.wait([runner.poll(ticket_id)], timeout=120.0)

            status, payload, _ = service.handle(
                "GET", f"/v1/tickets/{ticket_id}?result=1", None
            )
            assert status == 200
            assert payload["state"] == TICKET_DONE
            assert payload["source"] == "computed"
            result = payload["result"]
            assert result["iterations"]  # the persisted solve payload

            # Resubmission coalesces/serves — never recomputes.
            status, payload, _ = service.handle(
                "POST", "/v1/submit", self._submit_body(self._solve_spec())
            )
            assert status == 200
            assert payload["tickets"][0]["ticket_id"] == ticket_id
            stats = runner.stats()
            assert stats["jobs_run"] == 1
            assert stats["tickets_cache_served"] == 1

            # The ticket index on disk recorded the submitting client.
            index = json.loads(
                (tmp_path / "cache" / "service" / "tickets.json").read_text()
            )
            assert index["tickets"][ticket_id]["client"] == "tester"

    def test_fetches_ship_the_kept_payload_without_encoding(self, tmp_path, monkeypatch):
        """Computed, memo and cache tickets all ship the stored payload as is."""
        encodes = []
        original = SolveJob.encode
        monkeypatch.setattr(
            SolveJob, "encode", lambda job, result: encodes.append(job) or original(job, result)
        )
        cache_dir = tmp_path / "cache"
        spec = self._solve_spec(seed=3)

        def fetch(service, runner):
            status, payload, _ = service.handle(
                "POST", "/v1/submit", self._submit_body(spec)
            )
            assert status == 200
            ticket_id = payload["tickets"][0]["ticket_id"]
            assert runner.wait([runner.poll(ticket_id)], timeout=120.0)
            status, payload, _ = service.handle(
                "GET", f"/v1/tickets/{ticket_id}?result=1", None
            )
            assert status == 200
            stored = runner.cache.load_envelope(ticket_id)["result"]
            assert json.dumps(payload["result"]) == json.dumps(stored)
            return payload["source"]

        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            assert fetch(self._service(tmp_path, runner), runner) == "computed"
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            assert fetch(self._service(tmp_path, runner), runner) == "cache"
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            (job,) = build_jobs([spec])
            runner.run_jobs([job])  # memoized by the blocking path, no ticket yet
            assert fetch(self._service(tmp_path, runner), runner) == "memo"
        assert encodes == []

    def test_seeded_request_script_rate_limits_deterministically(self, tmp_path):
        """A scripted submission sequence gets an exact status/Retry-After
        sequence back: the limiter runs on an injected clock."""
        clock = _FakeClock()
        with ExperimentRunner(workers=1, cache_dir=tmp_path / "cache") as runner:
            service = self._service(
                tmp_path, runner, rate=1.0, burst=2.0, clock=clock
            )
            script = []  # (advance_before, expected_status)
            observed = []
            for advance, _expected in (
                (0.0, 200), (0.0, 200), (0.0, 429), (0.0, 429), (2.0, 200),
            ):
                script.append(_expected)
                clock.advance(advance)
                status, payload, headers = service.handle(
                    "POST",
                    "/v1/submit",
                    self._submit_body(self._solve_spec(), client="scripted"),
                )
                observed.append(status)
                if status == 429:
                    assert payload["error"] == "rate limited"
                    assert headers["Retry-After"] == "1"
                    assert payload["retry_after"] == pytest.approx(1.0)
            assert observed == script
            assert service.rejected_rate == 2
            assert service.limiter.stats()["rejected"] == 2
            # Other clients are unaffected by the scripted client's debt.
            status, _, _ = service.handle(
                "POST",
                "/v1/submit",
                self._submit_body(self._solve_spec(), client="bystander"),
            )
            assert status == 200
            runner.wait(
                [runner.poll(t.ticket_id) for t in runner._tickets.values()],
                timeout=120.0,
            )

    def test_queue_full_maps_to_429_backpressure(self, tmp_path, fast_config):
        release = threading.Event()
        started = threading.Event()
        with ExperimentRunner(workers=1, max_pending=1) as runner:
            real_run = runner.scheduler.run

            def blocking_run(jobs, progress=None):
                started.set()
                release.wait(timeout=60.0)
                return real_run(jobs, progress)

            runner.scheduler.run = blocking_run
            try:
                service = self._service(tmp_path, runner)
                status, _, _ = service.handle(
                    "POST", "/v1/submit", self._submit_body(self._solve_spec(seed=1))
                )
                assert status == 200
                assert started.wait(timeout=60.0)
                status, payload, headers = service.handle(
                    "POST", "/v1/submit", self._submit_body(self._solve_spec(seed=2))
                )
                assert status == 429
                assert payload["error"] == "submit queue full"
                assert payload["depth"] == 1
                assert payload["limit"] == 1
                assert headers["Retry-After"] == "1"
                assert service.rejected_backpressure == 1
            finally:
                release.set()
                runner.scheduler.run = real_run
            runner.wait(
                [t for t in runner._tickets.values()], timeout=120.0
            )

    def test_stats_shape(self, tmp_path):
        with ExperimentRunner(workers=1, cache_dir=tmp_path / "cache") as runner:
            service = self._service(tmp_path, runner)
            status, payload, _ = service.handle("GET", "/v1/stats", None)
            assert status == 200
            assert payload["protocol"] == PROTOCOL_VERSION
            assert set(payload["service"]) == {
                "requests", "rejected_rate", "rejected_backpressure",
            }
            assert payload["runner"]["jobs_run"] == 0
            assert payload["ratelimit"] == {
                "allowed": 0, "rejected": 0, "clients": 0,
            }

    def test_campaign_listing_is_empty_without_a_ledger(self, tmp_path):
        with ExperimentRunner(workers=1, cache_dir=tmp_path / "cache") as runner:
            service = self._service(tmp_path, runner)
            status, payload, _ = service.handle("GET", "/v1/campaigns", None)
            assert (status, payload) == (200, {"runs": []})
            status, _, _ = service.handle("GET", "/v1/campaigns/ghost", None)
            assert status == 404


# ----------------------------------------------------------------------
# Restart recovery: the cache is the durable result store.
# ----------------------------------------------------------------------
class TestRestartRecovery:
    def test_restarted_server_serves_results_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = {"kind": "solve", "rows": 4, "colors": 4, "seed": 5, "iterations": 1}
        body = {"protocol": PROTOCOL_VERSION, "client": "first-life", "jobs": [spec]}

        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            service = SolverService(runner, cache_dir)
            status, payload, _ = service.handle("POST", "/v1/submit", body)
            assert status == 200
            ticket_id = payload["tickets"][0]["ticket_id"]
            assert runner.wait([runner.poll(ticket_id)], timeout=120.0)
            status, done_payload, _ = service.handle(
                "GET", f"/v1/tickets/{ticket_id}?result=1", None
            )
            assert status == 200

        # "Restart": a brand-new runner + service over the same cache dir.
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as reborn:
            service = SolverService(reborn, cache_dir)
            assert reborn.poll(ticket_id) is None  # this runner never saw it
            status, payload, _ = service.handle(
                "GET", f"/v1/tickets/{ticket_id}?result=1", None
            )
            assert status == 200
            assert payload["state"] == TICKET_DONE
            assert payload["source"] == "cache"
            assert payload["result"] == done_payload["result"]
            assert reborn.stats()["jobs_run"] == 0

            # Resubmitting the same spec is a pure cache fetch too.
            status, payload, _ = service.handle("POST", "/v1/submit", body)
            assert status == 200
            assert payload["tickets"][0]["state"] == TICKET_DONE
            assert payload["tickets"][0]["source"] == "cache"
            assert reborn.stats()["jobs_run"] == 0

    def test_unfinished_tickets_recover_from_the_index(self, tmp_path, fast_config):
        """Ids without a cache entry still answer from the persisted index."""
        cache_dir = tmp_path / "cache"
        state = ServiceState(cache_dir)
        anon = Ticket(ticket_id="anon-0", job=_job(fast_config, seed=None))
        state.record_tickets([anon], client="first-life")

        with ExperimentRunner(workers=1, cache_dir=cache_dir) as reborn:
            service = SolverService(reborn, cache_dir)
            status, payload, _ = service.handle("GET", "/v1/tickets/anon-0", None)
            assert status == 200
            assert payload["recovered"] is True
            assert payload["state"] == TICKET_PENDING


# ----------------------------------------------------------------------
# Durable service state files.
# ----------------------------------------------------------------------
class TestServiceState:
    def test_endpoint_round_trip(self, tmp_path):
        state = ServiceState(tmp_path)
        assert state.read_endpoint() is None
        state.write_endpoint("127.0.0.1", 8765, PROTOCOL_VERSION)
        record = state.read_endpoint()
        assert record["host"] == "127.0.0.1"
        assert record["port"] == 8765
        assert record["service_state"] == SERVICE_STATE_VERSION
        state.clear_endpoint()
        assert state.read_endpoint() is None
        state.clear_endpoint()  # idempotent

    def test_damaged_files_read_as_empty(self, tmp_path):
        state = ServiceState(tmp_path)
        state.root.mkdir(parents=True)
        state.endpoint_path.write_text("{not json")
        state.tickets_path.write_text("[1, 2, 3]")
        assert state.read_endpoint() is None
        assert state.load_tickets() == {}

    def test_record_tickets_keeps_original_client(self, tmp_path, fast_config):
        state = ServiceState(tmp_path)
        job = _job(fast_config)
        ticket = Ticket(ticket_id=job.job_hash, job=job)
        state.record_tickets([ticket], client="owner")
        ticket.state = TICKET_DONE
        state.record_tickets([ticket], client="poller")
        index = ServiceState(tmp_path).load_tickets()
        assert index[job.job_hash]["state"] == TICKET_DONE
        assert index[job.job_hash]["client"] == "owner"

    def test_unchanged_states_do_not_rewrite(self, tmp_path, fast_config):
        state = ServiceState(tmp_path)
        job = _job(fast_config)
        ticket = Ticket(ticket_id=job.job_hash, job=job)
        state.record_tickets([ticket], client="owner")
        stamp = state.tickets_path.stat().st_mtime_ns
        state.record_tickets([ticket], client="someone-else")
        assert state.tickets_path.stat().st_mtime_ns == stamp


# ----------------------------------------------------------------------
# One end-to-end pass over the real asyncio transport + stdlib client.
# ----------------------------------------------------------------------
class TestHTTPTransport:
    @pytest.fixture()
    def live_service(self, tmp_path):
        """A real serve() loop on an ephemeral port, in a background thread."""
        cache_dir = tmp_path / "cache"
        with ExperimentRunner(workers=1, cache_dir=cache_dir) as runner:
            service = SolverService(runner, cache_dir)
            loop = asyncio.new_event_loop()
            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            future = asyncio.run_coroutine_threadsafe(
                serve(service, host="127.0.0.1", port=0), loop
            )
            try:
                deadline = 200
                while service.state.read_endpoint() is None and deadline:
                    if future.done():
                        future.result()  # surface the bind error
                    deadline -= 1
                    threading.Event().wait(0.05)
                assert service.state.read_endpoint() is not None
                yield service, cache_dir
            finally:
                # Cancel serve() on its own loop and wait until its task has
                # left ``async with server`` (closing the listening socket)
                # before the loop stops; cancelling the concurrent future
                # alone returns before the task has run its exit.
                async def stop_serving():
                    tasks = asyncio.all_tasks() - {asyncio.current_task()}
                    for task in tasks:
                        task.cancel()
                    await asyncio.gather(*tasks, return_exceptions=True)

                asyncio.run_coroutine_threadsafe(stop_serving(), loop).result(timeout=10.0)
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=10.0)
                loop.close()

    def test_client_round_trip(self, live_service):
        service, cache_dir = live_service
        client = ServiceClient(discover_endpoint(cache_dir), client_id="e2e")
        assert client.healthz()["ok"] is True

        tickets = client.submit(
            [{"kind": "solve", "rows": 4, "colors": 4, "seed": 9, "iterations": 1}]
        )
        (ticket,) = tickets
        states = client.wait([ticket["ticket_id"]], timeout=120.0)
        assert states[ticket["ticket_id"]]["state"] == TICKET_DONE

        payload = client.fetch(ticket["ticket_id"])
        assert payload["result"]["iterations"]  # the persisted solve payload
        stats = client.stats()
        assert stats["runner"]["jobs_run"] == 1

        # Unknown tickets surface as ServiceError(404) through the client.
        with pytest.raises(ServiceError) as excinfo:
            client.poll("does-not-exist")
        assert excinfo.value.status == 404

    def test_cli_client_commands(self, live_service, capsys):
        from repro.cli import main

        _, cache_dir = live_service
        located = ["--cache-dir", str(cache_dir)]
        assert main(["client", "submit", "--rows", "3", "--iterations", "1", "--seed", "5",
                     "--wait", *located]) == 0
        ticket_id = capsys.readouterr().out.split()[1]

        assert main(["client", "poll", ticket_id, *located]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == TICKET_DONE
        assert main(["client", "fetch", ticket_id, *located]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"]
        assert main(["client", "stats", *located]) == 0
        assert json.loads(capsys.readouterr().out)["runner"]["jobs_run"] == 1

    def test_stalled_request_is_closed_at_the_read_deadline(self, live_service, monkeypatch):
        """Half a request line, then silence: the server closes the connection."""
        import socket
        import time

        from repro.service import server

        monkeypatch.setattr(server, "READ_DEADLINE_S", 0.2)
        service, cache_dir = live_service
        endpoint = service.state.read_endpoint()
        with socket.create_connection((endpoint["host"], endpoint["port"]), timeout=10.0) as sock:
            sock.sendall(b"GET /v1/heal")
            started = time.monotonic()
            assert sock.recv(1024) == b""  # closed, with no response
            assert time.monotonic() - started < 5.0
        # The server keeps serving whole requests.
        client = ServiceClient(discover_endpoint(cache_dir), client_id="after-stall")
        assert client.healthz()["ok"] is True

    def test_endpoint_discovery_requires_a_record(self, tmp_path):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="no service endpoint record"):
            discover_endpoint(tmp_path / "nowhere")
