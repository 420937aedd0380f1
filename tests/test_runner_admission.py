"""Admission through ExperimentRunner: one path for blocking and submitted jobs.

Blocking :meth:`~repro.runtime.runner.ExperimentRunner.run_jobs` calls and
:meth:`~repro.runtime.runner.ExperimentRunner.submit_jobs` share one admission
path, so a hash in flight on either side coalesces with the other, and a
blocking call runs its own work in the calling thread.  These tests pin that
down with in-process job kinds on ``workers=1`` runners.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import ReproError
from repro.runtime.jobs import Job, KingsGraphSpec, SolveJob
from repro.runtime.runner import TICKET_DONE, TICKET_FAILED, ExperimentRunner

#: Job hashes in execution order, appended by every ``execute`` below.
EXECUTED: List[str] = []


class _Gate:
    """Holds a gated job's execution until the test releases it."""

    started = threading.Event()
    release = threading.Event()

    @classmethod
    def reset(cls) -> None:
        cls.started = threading.Event()
        cls.release = threading.Event()


@dataclass(frozen=True)
class CountedJob(Job):
    """A cacheable in-process job; a negative token raises in ``execute``."""

    token: int
    gated: bool = False

    job_kind = "test-counted"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self) -> Dict:
        return {"job_kind": self.job_kind, "token": self.token, "gated": self.gated}

    @property
    def label(self) -> str:
        return f"counted-{self.token}"

    def payload(self) -> Dict:
        if self.token < 0:
            raise ValueError(f"deliberate failure of token {self.token}")
        return {"token": self.token}

    def execute(self) -> Dict:
        EXECUTED.append(self.job_hash)
        if self.gated:
            _Gate.started.set()
            assert _Gate.release.wait(timeout=60.0)
        return self.payload()

    def decode(self, payload: Dict) -> Dict:
        return dict(payload)


def _fast_job(config, seed):
    return SolveJob(spec=KingsGraphSpec(3, 3), config=config, seed=seed, total_iterations=2)


@pytest.fixture(autouse=True)
def _fresh_counters():
    EXECUTED.clear()
    _Gate.reset()
    yield
    _Gate.release.set()  # never leave a gated execution hanging


def _run_in_thread(runner, jobs):
    """Start ``run_jobs(jobs)`` in a thread; returns (thread, outcome dict)."""
    outcome: Dict = {}

    def body():
        try:
            outcome["results"] = runner.run_jobs(jobs)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            outcome["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    return thread, outcome


# ----------------------------------------------------------------------
# One admission path: a blocking run and a submission coalesce.
# ----------------------------------------------------------------------
class TestCrossPathCoalescing:
    def test_submission_coalesces_onto_a_running_blocking_job(self):
        job = CountedJob(7, gated=True)
        with ExperimentRunner(workers=1) as runner:
            thread, outcome = _run_in_thread(runner, [job])
            assert _Gate.started.wait(timeout=60.0)
            ticket = runner.submit(CountedJob(7, gated=True))
            _Gate.release.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert runner.wait([ticket], timeout=60.0)
            stats = runner.stats()
        assert outcome == {"results": [{"token": 7}]}
        assert ticket.state == TICKET_DONE and ticket.result == {"token": 7}
        assert EXECUTED == [job.job_hash]
        assert stats["jobs_run"] == 1
        assert stats["tickets_coalesced"] == 1
        assert stats["queue_depth"] == 0

    def test_blocking_run_coalesces_onto_a_running_submission(self):
        job = CountedJob(8, gated=True)
        with ExperimentRunner(workers=1) as runner:
            ticket = runner.submit(job)
            assert _Gate.started.wait(timeout=60.0)
            thread, outcome = _run_in_thread(runner, [CountedJob(8, gated=True)])
            _Gate.release.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert runner.wait([ticket], timeout=60.0)
            assert runner.stats()["jobs_run"] == 1
        assert outcome == {"results": [{"token": 8}]}
        assert EXECUTED == [job.job_hash]

    def test_a_coalesced_submission_fails_with_the_blocking_error(self):
        with ExperimentRunner(workers=1) as runner:
            failing = CountedJob(-1, gated=True)
            thread, outcome = _run_in_thread(runner, [failing])
            assert _Gate.started.wait(timeout=60.0)
            ticket = runner.submit(CountedJob(-1, gated=True))
            _Gate.release.set()
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert runner.wait([ticket], timeout=60.0)
        assert isinstance(outcome["error"], ValueError)
        assert ticket.state == TICKET_FAILED
        assert ticket.error == "ValueError: deliberate failure of token -1"
        assert EXECUTED == [failing.job_hash]


    def test_racing_callers_on_both_paths_execute_each_hash_once(self):
        """Eight threads (more than the cores), half blocking, half
        submitting, admit overlapping hashes with a tiny switch interval."""
        tokens = range(6)
        errors: List[BaseException] = []

        with ExperimentRunner(workers=1) as runner:
            barrier = threading.Barrier(8)

            def caller(index):
                mine = [(index + offset) % len(tokens) for offset in range(4)]
                expected = [{"token": token} for token in mine]
                try:
                    barrier.wait(timeout=60.0)
                    jobs = [CountedJob(token) for token in mine]
                    if index % 2:
                        tickets = runner.submit_jobs(jobs)
                        assert runner.wait(tickets, timeout=60.0)
                        assert [ticket.result for ticket in tickets] == expected
                    else:
                        assert runner.run_jobs(jobs) == expected
                except Exception as exc:  # noqa: BLE001 - handed to the test
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            stats = runner.stats()
        assert errors == []
        assert sorted(EXECUTED) == sorted(CountedJob(token).job_hash for token in tokens)
        assert stats["jobs_run"] == len(tokens)
        assert stats["queue_depth"] == 0


# ----------------------------------------------------------------------
# A blocking call leaves nothing behind.
# ----------------------------------------------------------------------
def test_blocking_calls_leave_no_thread_and_no_seedless_result(fast_config):
    threads_before = threading.active_count()
    runner = ExperimentRunner()  # never closed, like the experiment harnesses
    cacheable, seedless = _fast_job(fast_config, seed=5), _fast_job(fast_config, seed=None)
    results = runner.run_jobs([cacheable, seedless, cacheable])
    assert results[0] is results[2]
    seedless_result = weakref.ref(results[1])
    del results
    gc.collect()

    assert threading.active_count() == threads_before
    assert runner.stats()["drain_alive"] == 0
    assert runner._drain_thread is None
    assert seedless_result() is None
    assert not any(ticket_id.startswith("anon-") for ticket_id in runner._tickets)
    stats = runner.stats()
    assert stats["jobs_run"] == 2
    assert stats["queue_depth"] == 0


# ----------------------------------------------------------------------
# Error semantics of run_jobs.
# ----------------------------------------------------------------------
class TestRunJobsErrors:
    def test_a_raising_job_reaches_the_caller_with_its_own_type(self):
        runner = ExperimentRunner()
        with pytest.raises(ValueError, match=r"^deliberate failure of token -3$"):
            runner.run_jobs([CountedJob(1), CountedJob(-3)])
        assert runner.stats()["queue_depth"] == 0

    def test_a_failed_hash_can_be_run_again(self):
        runner = ExperimentRunner()
        job = CountedJob(4)

        def fail_once(jobs, progress=None):
            runner.scheduler.run = real_run
            raise RuntimeError("transient backend failure")

        real_run = runner.scheduler.run
        runner.scheduler.run = fail_once
        with pytest.raises(RuntimeError, match="transient backend failure"):
            runner.run_jobs([job])
        assert runner.run_jobs([job]) == [{"token": 4}]
        assert runner.stats()["jobs_run"] == 1
        assert EXECUTED == [job.job_hash]

    def test_progress_announces_each_job_once_answers_first(self):
        runner = ExperimentRunner()
        runner.run_jobs([CountedJob(1)])
        seen: List[int] = []
        runner.run_jobs(
            [CountedJob(2), CountedJob(1), CountedJob(2)],
            progress=lambda job: seen.append(job.token),
        )
        assert seen == [1, 2]


# ----------------------------------------------------------------------
# Stateful admission: submit / run_jobs / poll / wait / close interleavings.
# ----------------------------------------------------------------------
TOKENS = st.integers(min_value=-1, max_value=3)  # -1 raises


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        EXECUTED.clear()
        self.runner = ExperimentRunner(workers=1)
        self.tickets: List = []
        # hash -> len(EXECUTED) when its success was first observed
        self.succeeded_at: Dict[str, int] = {}
        self.raising_admitted = False

    def _observe(self, job_hash: str) -> None:
        self.succeeded_at.setdefault(job_hash, len(EXECUTED))

    @rule(token=TOKENS)
    def submit(self, token):
        self.raising_admitted |= token < 0
        self.tickets.append(self.runner.submit(CountedJob(token)))

    @rule(tokens=st.lists(TOKENS, min_size=1, max_size=3))
    def run_jobs(self, tokens):
        jobs = [CountedJob(token) for token in tokens]
        self.raising_admitted |= min(tokens) < 0
        try:
            results = self.runner.run_jobs(jobs)
        except (ValueError, ReproError):
            assert self.raising_admitted
            return
        assert min(tokens) >= 0
        assert results == [job.decode(job.payload()) for job in jobs]
        for job in jobs:
            self._observe(job.job_hash)

    @precondition(lambda self: self.tickets)
    @rule(data=st.data())
    def poll(self, data):
        ticket = data.draw(st.sampled_from(self.tickets))
        polled = self.runner.poll(ticket.ticket_id)
        assert polled is not None and polled.ticket_id == ticket.ticket_id

    @rule()
    def wait(self):
        assert self.runner.wait(self.tickets, timeout=60.0)
        assert self.runner.queue_depth() == 0
        for ticket in self.tickets:
            if ticket.state == TICKET_DONE:
                assert ticket.result == ticket.job.decode(ticket.job.payload())
                self._observe(ticket.ticket_id)

    @rule()
    def close(self):
        self.runner.close()
        assert all(ticket.finished for ticket in self.tickets)

    @invariant()
    def a_succeeded_hash_never_executes_again(self):
        for job_hash, mark in self.succeeded_at.items():
            assert job_hash not in EXECUTED[mark:]

    @invariant()
    def without_failures_every_hash_executes_once(self):
        if not self.raising_admitted:
            assert max(Counter(EXECUTED).values(), default=0) <= 1

    def teardown(self) -> None:
        self.runner.close()


TestAdmissionMachine = AdmissionMachine.TestCase
TestAdmissionMachine.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
