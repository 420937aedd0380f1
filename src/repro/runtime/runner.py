"""ExperimentRunner: the facade every experiment's solves route through.

The runner turns "solve these problems with these configs" into scheduled,
cached jobs:

1. each :class:`SolveRequest` becomes one :class:`~repro.runtime.jobs.SolveJob`
   (optionally split into replica chunks),
2. jobs already answered by the in-process memo or the on-disk
   :class:`~repro.runtime.cache.ResultCache` are skipped,
3. the remaining jobs are sharded across the
   :class:`~repro.runtime.scheduler.JobScheduler`'s worker processes,
4. chunk results are merged back per request, bit-identical to serial runs.

Identical jobs appearing in several requests (e.g. Table 1 and the suite both
solving the 49-node problem under the same seed) are deduplicated by content
hash and solved once.  A default-constructed runner (one worker, no cache
directory) reproduces today's serial behaviour exactly, which is what the
experiments use when no runner is passed.

Results returned by the runner are in *persisted form* (round-tripped through
:mod:`repro.analysis.results_io`): accuracies, colorings, seeds and stage
records are preserved exactly, while unserialized extras (final phase arrays,
trajectories) are dropped — the same form a cache hit or a worker process
returns, so the three sources are indistinguishable.

Every job enters through one admission path and becomes a :class:`Ticket`
keyed by its content hash: a hash the memo or the disk cache answers gets an
immediately-``done`` ticket, a hash already in flight **coalesces** onto the
existing ticket (N admissions of one hash, from any caller, make one
execution), and anything else gets a new ticket.  One completion path runs new
tickets as a scheduler batch, validates, stores and memoizes each result, and
settles the tickets.  The two entry points differ only in who executes:

* :meth:`ExperimentRunner.run_jobs` blocks — it executes its new tickets in
  the calling thread, waits for any it coalesced onto, and returns results;
* :meth:`ExperimentRunner.submit_jobs` does not (the ``msropm serve`` front
  door) — new tickets queue for a background drain thread,
  :meth:`~ExperimentRunner.poll` / :meth:`~ExperimentRunner.wait` watch them,
  resubmitting a finished hash returns the same ticket, and ``max_pending``
  bounds the queue so a front door can push back (:class:`SubmitQueueFull`)
  instead of buffering without limit.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.core.config import MSROPMConfig
from repro.core.results import SolveResult
from repro.graphs.graph import Graph
from repro.obs.metrics import get_metrics
from repro.runtime.cache import ResultCache
from repro.runtime.executors import ProgressCallback, make_backend
from repro.runtime.jobs import GraphSpec, Job, SolveJob, as_graph_spec, merge_requests
from repro.runtime.scheduler import JobScheduler

#: Ticket lifecycle states.  ``pending`` — admitted, not yet handed to the
#: scheduler; ``running`` — in a batch the drain thread or a blocking caller
#: is executing; ``done`` — result available; ``failed`` — execution raised
#: (the error is recorded and a resubmission of the same hash re-enqueues a
#: fresh attempt).
TICKET_PENDING = "pending"
TICKET_RUNNING = "running"
TICKET_DONE = "done"
TICKET_FAILED = "failed"

#: The states a ticket can still leave (the in-flight states).
TICKET_ACTIVE_STATES = (TICKET_PENDING, TICKET_RUNNING)

#: The terminal states.
TICKET_FINAL_STATES = (TICKET_DONE, TICKET_FAILED)


def _invalid_result_message(job: Job) -> str:
    name = job.job_hash if job.cacheable else "(uncacheable)"
    return f"job {name} {job.label} produced a result that fails validation; nothing was stored"


class SubmitQueueFull(ReproError):
    """Raised when a submission would exceed the runner's ``max_pending`` cap.

    Carries the observed queue depth and the cap so a front door can translate
    the rejection into backpressure (HTTP 429 + ``Retry-After``).
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"submit queue is full ({depth} in-flight jobs >= limit {limit})"
        )
        self.depth = depth
        self.limit = limit


@dataclass
class Ticket:
    """One admitted job's handle: identity, lifecycle state, and result.

    For cacheable jobs the ticket id *is* the job content hash — which is what
    makes resubmission idempotent (same hash, same ticket) and lets a restarted
    server answer fetches straight from the content-addressed cache.
    Uncacheable jobs get a process-local ``anon-N`` id and never coalesce.

    ``source`` records where the result came from: ``computed`` (executed by
    this runner), ``memo`` (in-process dedup) or ``cache`` (disk hit).
    ``payload`` is the job's persisted payload the result was decoded from
    (the worker's output or the cache entry), kept so a fetch can ship it
    without encoding the result again.
    ``coalesced`` counts the *extra* admissions (submitted or blocking) that
    attached to this ticket while it was in flight.
    """

    ticket_id: str
    job: Job
    state: str = TICKET_PENDING
    result: Any = None
    payload: Optional[Dict] = None
    error: Optional[str] = None
    source: str = "computed"
    coalesced: int = 0
    sequence: int = 0

    @property
    def finished(self) -> bool:
        """Whether the ticket reached a terminal state (done or failed)."""
        return self.state in TICKET_FINAL_STATES


@dataclass(frozen=True)
class SolveRequest:
    """One experiment-level solve: a problem, a config, and an iteration budget."""

    spec: GraphSpec
    config: MSROPMConfig
    iterations: int
    seed: Optional[int]


class ExperimentRunner:
    """Unified execution facade: scheduling + caching for experiment solves.

    Blocking calls (:meth:`run_jobs`) and submissions (:meth:`submit_jobs`)
    share one admission path and one completion path; a blocking call runs
    in the caller's thread, so a runner that only serves those starts none.

    Parameters
    ----------
    workers:
        Worker processes for the scheduler (1 = run inline, the default).
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables disk
        caching (an in-process memo still deduplicates within the runner's
        lifetime).
    replica_chunk:
        If set, solves are split into jobs of at most this many replicas, so
        a single large solve can shard across workers.  Chunk boundaries
        depend only on this value — never on ``workers`` — keeping cache
        hashes identical across worker counts.
    executor:
        Executor backend name: ``"local"`` (the default warm process pool) or
        ``"spool"`` (fleet execution over a shared filesystem spool;
        requires ``spool_dir``).  Results are bit-identical across backends.
    spool_dir:
        The shared spool directory for ``executor="spool"``.
    executor_options:
        Extra keyword options forwarded to the backend constructor (e.g.
        ``lease_timeout`` for the spool backend).
    max_pending:
        Upper bound on in-flight (pending + running) tickets; a submission
        that would add one past the cap raises :class:`SubmitQueueFull`.
        ``None`` (default) means unbounded.  Only :meth:`submit_jobs` is
        capped — :meth:`run_jobs` executes its own tickets, so it is already
        self-limiting (its in-flight tickets still count toward the depth).
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        replica_chunk: Optional[int] = None,
        executor: str = "local",
        spool_dir: Optional[Union[str, Path]] = None,
        executor_options: Optional[Dict[str, Any]] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        backend = make_backend(
            executor, workers=workers, spool_dir=spool_dir, **(executor_options or {})
        )
        self.scheduler = JobScheduler(backend=backend)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.replica_chunk = replica_chunk
        self.max_pending = max_pending
        # job hash -> (decoded result, the payload it was decoded from)
        self._memo: Dict[str, Tuple[Any, Dict]] = {}
        self.jobs_run = 0
        # --- ticket state (all guarded by _cond's lock) ---
        self._cond = threading.Condition()
        # ticket id -> ticket: every submitted ticket and every executed
        # cacheable one (later admissions of its hash reuse it).
        self._tickets: Dict[str, Ticket] = {}
        self._queue: List[Ticket] = []  # submitted, waiting for the drain thread
        self._in_flight = 0
        self._drain_thread: Optional[threading.Thread] = None
        self._stop_drain = False
        self._anon_seq: Iterator[int] = itertools.count()
        self._ticket_seq: Iterator[int] = itertools.count()
        self.tickets_issued = 0
        self.tickets_coalesced = 0
        self.tickets_cache_served = 0

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of scheduler worker processes."""
        return self.scheduler.workers

    @property
    def executor(self) -> str:
        """Registry name of the scheduler's executor backend."""
        return self.scheduler.executor

    def close(self) -> None:
        """Release the drain thread and the scheduler's warm pool (idempotent).

        The pool is kept alive between :meth:`solve_many` calls so multi-batch
        commands (``msropm suite``, ``msropm scenarios``) pay process spin-up
        once; closing the runner — or using it as a context manager — returns
        the workers.  A closed runner can keep solving: the next parallel
        batch restarts the pool, the next submission the drain thread.

        The drain thread finishes the batch it is currently executing, then
        exits; tickets still *queued* at that point are marked failed (their
        hashes can simply be resubmitted later).
        """
        thread: Optional[threading.Thread] = None
        with self._cond:
            if self._drain_thread is not None and self._drain_thread.is_alive():
                self._stop_drain = True
                self._cond.notify_all()
                thread = self._drain_thread
        if thread is not None:
            thread.join()
        with self._cond:
            self._drain_thread = None
            self._stop_drain = False
        self.scheduler.close()

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Execution counters: jobs run, cache hits/misses/stores, memo size,
        and ticket/coalescing/queue accounting.  The ``tickets_*`` counters
        count admissions from :meth:`run_jobs` as well as submissions, and
        ``queue_depth`` is the in-flight tickets of both.  ``drain_alive``
        reports whether the background drain thread is currently running
        (liveness for the service's ``/stats``)."""
        with self._cond:
            counters = {
                "jobs_run": self.jobs_run,
                "memo_entries": len(self._memo),
                "cache_hits": 0,
                "cache_misses": 0,
                "cache_stale_misses": 0,
                "cache_stores": 0,
                "tickets_issued": self.tickets_issued,
                "tickets_coalesced": self.tickets_coalesced,
                "tickets_cache_served": self.tickets_cache_served,
                "queue_depth": self._in_flight,
                "drain_alive": int(
                    self._drain_thread is not None and self._drain_thread.is_alive()
                ),
            }
        if self.cache is not None:
            counters["cache_hits"] = self.cache.hits
            counters["cache_misses"] = self.cache.misses
            counters["cache_stale_misses"] = self.cache.stale_misses
            counters["cache_stores"] = self.cache.stores
        return counters

    # ------------------------------------------------------------------
    def solve(
        self,
        graph: Union[GraphSpec, Graph, str, Path],
        config: MSROPMConfig,
        iterations: int,
        seed: Optional[int] = None,
    ) -> SolveResult:
        """Solve one problem through the runtime (convenience wrapper)."""
        request = SolveRequest(
            spec=as_graph_spec(graph), config=config, iterations=iterations, seed=seed
        )
        return self.solve_many([request])[0]

    def run_jobs(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> List[Any]:
        """Run a batch of jobs (any mix of types), returning decoded results
        in submission order.

        Every job is admitted like a submission: answered by the memo or the
        disk cache, coalesced onto an in-flight ticket of the same hash (this
        batch's or another caller's), or given a new ticket.  The new tickets
        then run as one scheduler batch *in the calling thread*, so the call
        starts no thread and a ``workers=1`` runner stays inline; an
        exception from the scheduler reaches the caller as raised.  Each
        freshly computed result is checked with ``job.validate`` before it is
        memoized or stored; an invalid one is neither, and once the batch's
        valid results are stored, :class:`~repro.exceptions.ReproError`
        names it.

        ``progress`` (optional) fires once per job as it resolves — first for
        memo/cache answers, then per completion for executed jobs — giving
        callers (the campaign orchestrator's per-job ledger events) batch-free
        granularity.  It is observability only: it must not raise, may see
        duplicate job hashes (dedup is the consumer's job), and cannot affect
        results.
        """
        jobs = list(jobs)
        new: List[Ticket] = []
        with self._cond:
            tickets = [self._admit_locked(job, new) for job in jobs]
            answered = [ticket.finished for ticket in tickets]
        if progress is not None:
            for job, done in zip(jobs, answered):
                if done:
                    progress(job)
        self._execute(new, progress)
        self.wait(tickets)  # including those another caller is executing
        if progress is not None:
            announced = {id(ticket) for ticket in new}
            for ticket, done in zip(tickets, answered):
                if not done and id(ticket) not in announced and ticket.state == TICKET_DONE:
                    announced.add(id(ticket))
                    progress(ticket.job)
        failed = list({id(t): t for t in tickets if t.state == TICKET_FAILED}.values())
        if failed:
            more = f" (and {len(failed) - 1} more)" if len(failed) > 1 else ""
            raise ReproError(f"{failed[0].error}{more}")
        return [ticket.result for ticket in tickets]

    # ------------------------------------------------------------------
    # Non-blocking submit / poll / fetch (the service front door), and the
    # admission and completion paths it shares with run_jobs.
    # ------------------------------------------------------------------
    def submit_jobs(self, jobs: Sequence[Job]) -> List[Ticket]:
        """Submit a batch of jobs without blocking, returning one ticket each.

        Cacheable jobs are keyed by content hash: a hash already answered by
        the memo or the disk cache comes back as an immediately-``done``
        ticket, a hash currently in flight **coalesces** onto the existing
        ticket (one execution, N watchers), and a previously ``failed`` hash
        is re-enqueued as a fresh attempt under the same id.  New work is
        queued for the background drain thread; when ``max_pending`` is set
        and the queue is full, :class:`SubmitQueueFull` is raised at the first
        job that would exceed the cap.  Jobs admitted before the rejection
        stay queued — hash-keyed idempotency makes a full-batch retry safe
        (retried jobs coalesce onto their already-queued tickets).
        """
        tickets: List[Ticket] = []
        with self._cond:
            try:
                for job in jobs:
                    ticket = self._admit_locked(job, self._queue, self.max_pending)
                    self._tickets[ticket.ticket_id] = ticket  # pollable by id
                    tickets.append(ticket)
            finally:
                # Wake the drain thread even if a later job hit the cap:
                # already-admitted tickets must still execute.
                if self._queue:
                    self._cond.notify_all()
                    self._ensure_drain_thread_locked()
        return tickets

    def submit(self, job: Job) -> Ticket:
        """Submit a single job (see :meth:`submit_jobs`)."""
        return self.submit_jobs([job])[0]

    def _admit_locked(
        self, job: Job, queue: List[Ticket], limit: Optional[int] = None
    ) -> Ticket:
        """Resolve one job to a ticket.  Caller holds ``_cond``.

        A hash with a live or finished ticket reuses it; otherwise the memo,
        then the disk cache, answer with a ``done`` ticket.  Anything else
        gets a new ticket appended to ``queue`` for the caller to execute,
        unless ``limit`` tickets are already in flight
        (:class:`SubmitQueueFull`).  New cacheable tickets are registered
        here, so every later admission of their hash coalesces onto them.
        """
        metrics = get_metrics()
        key = job.job_hash if job.cacheable else None
        answer, source = None, "memo"
        if key is not None:
            existing = self._tickets.get(key)
            if existing is not None and existing.state != TICKET_FAILED:
                if existing.finished:
                    self.tickets_cache_served += 1
                    metrics.inc("runner.tickets_cache_served")
                else:
                    existing.coalesced += 1
                    self.tickets_coalesced += 1
                    metrics.inc("runner.tickets_coalesced")
                return existing
            answer = self._memo.get(key)
            if answer is None and self.cache is not None:
                answer, source = self.cache.load(job), "cache"
                if answer is not None:
                    self._memo[key] = answer
        if answer is None and limit is not None and self._in_flight >= limit:
            metrics.inc("runner.submit_rejections")
            raise SubmitQueueFull(self._in_flight, limit)
        ticket = Ticket(
            ticket_id=key if key is not None else f"anon-{next(self._anon_seq)}",
            job=job,
            sequence=next(self._ticket_seq),
        )
        self._in_flight += 1
        self.tickets_issued += 1
        metrics.inc("runner.tickets_issued")
        if answer is not None:
            self.tickets_cache_served += 1
            metrics.inc("runner.tickets_cache_served")
            self._settle_locked(ticket, TICKET_DONE, *answer, source=source)
            return ticket
        if key is not None:
            self._tickets[key] = ticket
        queue.append(ticket)
        metrics.set_gauge("runner.queue_depth", self._in_flight)
        return ticket

    def _settle_locked(
        self,
        ticket: Ticket,
        state: str,
        result: Any = None,
        payload: Optional[Dict] = None,
        source: str = "computed",
        error: Optional[str] = None,
    ) -> None:
        """Move an in-flight ticket to a terminal state.  Caller holds ``_cond``."""
        ticket.state, ticket.result, ticket.payload = state, result, payload
        ticket.source, ticket.error = source, error
        self._in_flight -= 1
        get_metrics().set_gauge("runner.queue_depth", self._in_flight)
        self._cond.notify_all()

    def _execute(
        self, tickets: List[Ticket], progress: Optional[ProgressCallback] = None
    ) -> None:
        """Run new tickets as one scheduler batch and settle every one.

        A valid result is stored as the payload its worker produced (no second
        encode), memoized, and settles its ticket ``done``; an invalid one is
        neither stored nor memoized and fails its ticket.  If the batch
        raises, every ticket fails with the error, which is then re-raised.
        """
        if not tickets:
            return
        with self._cond:
            for ticket in tickets:
                ticket.state = TICKET_RUNNING
        jobs = [ticket.job for ticket in tickets]
        metrics = get_metrics()
        try:
            batch = self.scheduler.run(jobs, progress)
            valid = [bool(job.validate(result)) for job, result in zip(jobs, batch)]
            for job, payload, ok in zip(jobs, batch.payloads, valid):
                if not ok:
                    metrics.inc("runner.invalid_results")
                elif job.cacheable and self.cache is not None:
                    self.cache.store(job, payload)
        except BaseException as exc:
            with self._cond:
                for ticket in tickets:
                    self._settle_locked(
                        ticket, TICKET_FAILED, error=f"{type(exc).__name__}: {exc}"
                    )
            raise
        with self._cond:
            self.jobs_run += len(tickets)
            for ticket, result, payload, ok in zip(tickets, batch, batch.payloads, valid):
                if not ok:
                    self._settle_locked(
                        ticket, TICKET_FAILED, error=_invalid_result_message(ticket.job)
                    )
                    continue
                if ticket.job.cacheable:
                    self._memo[ticket.ticket_id] = (result, payload)
                self._settle_locked(ticket, TICKET_DONE, result, payload)
        metrics.inc("runner.tickets_completed", sum(valid))

    def _ensure_drain_thread_locked(self) -> None:
        """Start the background drain thread if needed.  Caller holds ``_cond``."""
        if self._drain_thread is None or not self._drain_thread.is_alive():
            self._stop_drain = False
            self._drain_thread = threading.Thread(
                target=self._drain_worker, name="runner-drain", daemon=True
            )
            self._drain_thread.start()

    def _drain_worker(self) -> None:
        """Background loop: take the whole queue and execute it as one batch.

        Batching the full queue (rather than one job at a time) lets a burst
        of submissions spread across the warm pool in a single dispatch.
        """
        while True:
            with self._cond:
                while not self._queue and not self._stop_drain:
                    self._cond.wait()
                batch, self._queue = self._queue, []
                if self._stop_drain:
                    for ticket in batch:
                        self._settle_locked(
                            ticket, TICKET_FAILED, error="runner closed before execution"
                        )
                    return
            metrics = get_metrics()
            try:
                with metrics.timer("runner.drain_batch_seconds"):
                    self._execute(batch)
            except Exception:  # noqa: BLE001 - the tickets carry the error
                metrics.inc("runner.drain_batch_failures")

    def poll(self, ticket_id: str) -> Optional[Ticket]:
        """Look up a ticket by id (``None`` if this runner never issued it)."""
        with self._cond:
            return self._tickets.get(ticket_id)

    def wait(
        self, tickets: Sequence[Ticket], timeout: Optional[float] = None
    ) -> bool:
        """Block until every ticket reaches a terminal state.

        Returns ``True`` when all finished, ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not all(ticket.finished for ticket in tickets):
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
        return True

    def queue_depth(self) -> int:
        """In-flight (pending + running) tickets, submitted or blocking."""
        with self._cond:
            return self._in_flight

    def plan_jobs(self, requests: Sequence[SolveRequest]) -> List[List[SolveJob]]:
        """The per-request job lists ``solve_many`` would schedule.

        Chunk boundaries come from this runner's ``replica_chunk``, so the
        returned jobs carry exactly the hashes a ``solve_many`` call (or a
        campaign stage built on this planner) addresses in the cache.
        """
        per_request_jobs: List[List[SolveJob]] = []
        for request in requests:
            job = SolveJob(
                spec=request.spec,
                config=request.config,
                seed=request.seed,
                total_iterations=request.iterations,
            )
            per_request_jobs.append(job.split(self.replica_chunk))
        return per_request_jobs

    def solve_many(self, requests: Sequence[SolveRequest]) -> List[SolveResult]:
        """Solve a batch of requests, sharding all their jobs across the pool.

        Returns one merged :class:`SolveResult` per request, in request order.
        Submitting the whole batch at once (rather than request-by-request) is
        what lets the pool interleave problems, sweep points and replica
        chunks freely.
        """
        flat = [job for jobs in self.plan_jobs(requests) for job in jobs]
        return merge_requests(flat, self.run_jobs(flat))
