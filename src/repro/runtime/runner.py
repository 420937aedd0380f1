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

Beyond the blocking :meth:`ExperimentRunner.run_jobs` path, the runner exposes
an explicit **plan / submit / poll / fetch** API for long-lived callers (the
``msropm serve`` front door):

* :meth:`ExperimentRunner.submit_jobs` is non-blocking — each job becomes a
  :class:`Ticket` keyed by its content hash, answered immediately from the
  memo or disk cache when possible, and otherwise queued for a background
  drain thread that shards batches through the scheduler;
* identical in-flight submissions **coalesce**: N concurrent submissions of
  the same hash attach to one pending ticket and one pool slot, never N;
* resubmitting a hash after completion returns the same (finished) ticket —
  idempotent resubmission is a pure memo/cache fetch;
* :meth:`ExperimentRunner.poll` / :meth:`ExperimentRunner.wait` are the
  completion-watch path, and ``max_pending`` bounds the submit queue so a
  front door can push back (:class:`SubmitQueueFull`) instead of buffering
  without limit.
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
from repro.runtime.jobs import GraphSpec, Job, SolveJob, as_graph_spec, merge_job_results
from repro.runtime.scheduler import DecodedBatch, JobScheduler

#: Ticket lifecycle states.  ``pending`` — queued, not yet handed to the
#: scheduler; ``running`` — part of the batch the drain thread is executing;
#: ``done`` — result available; ``failed`` — execution raised (the error is
#: recorded and a resubmission of the same hash re-enqueues a fresh attempt).
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
    """One submitted job's handle: identity, lifecycle state, and result.

    For cacheable jobs the ticket id *is* the job content hash — which is what
    makes resubmission idempotent (same hash, same ticket) and lets a restarted
    server answer fetches straight from the content-addressed cache.
    Uncacheable jobs get a process-local ``anon-N`` id and never coalesce.

    ``source`` records where the result came from: ``computed`` (executed by
    this runner), ``memo`` (in-process dedup) or ``cache`` (disk hit).
    ``payload`` is the job's persisted payload the result was decoded from
    (the worker's output or the cache entry), kept so a fetch can ship it
    without encoding the result again.
    ``coalesced`` counts the *extra* submissions that attached to this ticket
    while it was in flight.
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
        Upper bound on in-flight (pending + running) *submitted* jobs; a
        submission past the cap raises :class:`SubmitQueueFull`.  ``None``
        (default) means unbounded.  Only the submit path is capped — the
        blocking :meth:`run_jobs` path is already self-limiting.
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
        # --- submit/poll/fetch state (all guarded by _cond's lock) ---
        self._cond = threading.Condition()
        self._tickets: Dict[str, Ticket] = {}
        self._queue: List[Ticket] = []
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
        batch (or submission) simply restarts the drain thread and pool.

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
        and the submit path's ticket/coalescing/queue accounting.
        ``drain_alive`` reports whether the background drain thread is
        currently running (liveness for the service's ``/stats``)."""
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

        This is the generic execution path every batch goes through: jobs
        already answered by the in-process memo or the disk cache are skipped,
        identical jobs are deduplicated by content hash and computed once, and
        the remainder shards across the scheduler's worker pool.  Each freshly
        computed result is checked with ``job.validate`` before it is memoized
        or stored; an invalid one is neither, and once the batch's valid
        results are stored, :class:`~repro.exceptions.ReproError` names it.

        ``progress`` (optional) fires once per job as it resolves — immediately
        for memo/cache answers, per completion for scheduled jobs — giving
        callers (the campaign orchestrator's per-job ledger events) batch-free
        granularity.  It is observability only: it must not raise, may see
        duplicate job hashes (dedup is the consumer's job), and cannot affect
        results.
        """
        jobs = list(jobs)
        resolved: Dict[int, Any] = {}
        pending: List[Job] = []
        pending_keys: set = set()
        with self._cond:
            for position, job in enumerate(jobs):
                key = job.job_hash if job.cacheable else None
                if key is not None and key in self._memo:
                    resolved[position] = self._memo[key][0]
                    continue
                if key is not None and key in pending_keys:
                    continue  # identical job already queued; share its result
                if key is not None and self.cache is not None:
                    cached = self.cache.load(job)
                    if cached is not None:
                        self._memo[key] = cached
                        resolved[position] = cached[0]
                        continue
                if key is not None:
                    pending_keys.add(key)
                pending.append(job)

        if progress is not None:
            # Announce the memo/cache-resolved jobs up front (outside the
            # lock); scheduled jobs announce themselves as they complete.
            for position in sorted(resolved):
                progress(jobs[position])

        fresh = self.scheduler.run(pending, progress)
        valid = self._validate_and_store(pending, fresh)
        with self._cond:
            self.jobs_run += len(fresh)
            for job, result, payload, ok in zip(pending, fresh, fresh.payloads, valid):
                if ok and job.cacheable:
                    self._memo[job.job_hash] = (result, payload)
        rejected = [job for job, ok in zip(pending, valid) if not ok]
        if rejected:
            more = f" (and {len(rejected) - 1} more)" if len(rejected) > 1 else ""
            raise ReproError(f"{_invalid_result_message(rejected[0])}{more}")

        # Fill the remaining positions (freshly run or deduplicated jobs).
        next_uncacheable = iter(
            result for job, result in zip(pending, fresh) if not job.cacheable
        )
        for position, job in enumerate(jobs):
            if position in resolved:
                continue
            if job.cacheable:
                resolved[position] = self._memo[job.job_hash][0]
            else:
                resolved[position] = next(next_uncacheable)
        return [resolved[position] for position in range(len(jobs))]

    # ------------------------------------------------------------------
    # Non-blocking submit / poll / fetch path (the service front door).
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
        jobs = list(jobs)
        with self._cond:
            try:
                tickets = [self._submit_one_locked(job) for job in jobs]
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

    def _submit_one_locked(self, job: Job) -> Ticket:
        """Resolve one submission to a ticket.  Caller holds ``_cond``."""
        key = job.job_hash if job.cacheable else None
        if key is not None:
            existing = self._tickets.get(key)
            if existing is not None:
                if existing.state in TICKET_ACTIVE_STATES:
                    existing.coalesced += 1
                    self.tickets_coalesced += 1
                    get_metrics().inc("runner.tickets_coalesced")
                    return existing
                if existing.state == TICKET_DONE:
                    self.tickets_cache_served += 1
                    get_metrics().inc("runner.tickets_cache_served")
                    return existing
                # failed → fall through and re-enqueue a fresh attempt
            if key in self._memo:
                result, payload = self._memo[key]
                ticket = Ticket(
                    ticket_id=key,
                    job=job,
                    state=TICKET_DONE,
                    result=result,
                    payload=payload,
                    source="memo",
                    sequence=next(self._ticket_seq),
                )
                self._tickets[key] = ticket
                self.tickets_issued += 1
                self.tickets_cache_served += 1
                get_metrics().inc("runner.tickets_issued")
                get_metrics().inc("runner.tickets_cache_served")
                return ticket
            if self.cache is not None:
                cached = self.cache.load(job)
                if cached is not None:
                    self._memo[key] = cached
                    ticket = Ticket(
                        ticket_id=key,
                        job=job,
                        state=TICKET_DONE,
                        result=cached[0],
                        payload=cached[1],
                        source="cache",
                        sequence=next(self._ticket_seq),
                    )
                    self._tickets[key] = ticket
                    self.tickets_issued += 1
                    self.tickets_cache_served += 1
                    get_metrics().inc("runner.tickets_issued")
                    get_metrics().inc("runner.tickets_cache_served")
                    return ticket
        if self.max_pending is not None and self._in_flight >= self.max_pending:
            get_metrics().inc("runner.submit_rejections")
            raise SubmitQueueFull(self._in_flight, self.max_pending)
        ticket_id = key if key is not None else f"anon-{next(self._anon_seq)}"
        ticket = Ticket(
            ticket_id=ticket_id, job=job, sequence=next(self._ticket_seq)
        )
        self._tickets[ticket_id] = ticket
        self._queue.append(ticket)
        self._in_flight += 1
        self.tickets_issued += 1
        metrics = get_metrics()
        metrics.inc("runner.tickets_issued")
        metrics.set_gauge("runner.queue_depth", self._in_flight)
        return ticket

    def _ensure_drain_thread_locked(self) -> None:
        """Start the background drain thread if needed.  Caller holds ``_cond``."""
        if self._drain_thread is None or not self._drain_thread.is_alive():
            self._stop_drain = False
            self._drain_thread = threading.Thread(
                target=self._drain_worker, name="runner-drain", daemon=True
            )
            self._drain_thread.start()

    def _drain_worker(self) -> None:
        """Background loop: take the whole queue as one scheduler batch.

        Batching the full queue (rather than one job at a time) preserves the
        sharding behaviour of :meth:`run_jobs` — a burst of submissions
        spreads across the warm pool in a single dispatch.
        """
        while True:
            with self._cond:
                while not self._queue and not self._stop_drain:
                    self._cond.wait()
                if self._stop_drain:
                    for ticket in self._queue:
                        ticket.state = TICKET_FAILED
                        ticket.error = "runner closed before execution"
                        self._in_flight -= 1
                    self._queue.clear()
                    self._cond.notify_all()
                    return
                batch = list(self._queue)
                self._queue.clear()
                for ticket in batch:
                    ticket.state = TICKET_RUNNING
            metrics = get_metrics()
            try:
                with metrics.timer("runner.drain_batch_seconds"):
                    results = self.scheduler.run([ticket.job for ticket in batch])
            except Exception as exc:  # noqa: BLE001 - report, never kill the loop
                metrics.inc("runner.drain_batch_failures")
                with self._cond:
                    for ticket in batch:
                        ticket.state = TICKET_FAILED
                        ticket.error = f"{type(exc).__name__}: {exc}"
                        self._in_flight -= 1
                    metrics.set_gauge("runner.queue_depth", self._in_flight)
                    self._cond.notify_all()
                continue
            valid = self._validate_and_store([ticket.job for ticket in batch], results)
            with self._cond:
                for ticket, result, payload, ok in zip(batch, results, results.payloads, valid):
                    if not ok:
                        ticket.state = TICKET_FAILED
                        ticket.error = _invalid_result_message(ticket.job)
                    else:
                        if ticket.job.cacheable:
                            self._memo[ticket.job.job_hash] = (result, payload)
                        ticket.result = result
                        ticket.payload = payload
                        ticket.state = TICKET_DONE
                        ticket.source = "computed"
                    self.jobs_run += 1
                    self._in_flight -= 1
                metrics.inc("runner.tickets_completed", sum(valid))
                metrics.set_gauge("runner.queue_depth", self._in_flight)
                self._cond.notify_all()

    def _validate_and_store(self, jobs: Sequence[Job], batch: DecodedBatch) -> List[bool]:
        """Validate each freshly computed result; store the valid ones.

        A valid result is stored as the payload its worker produced (no
        second encode); an invalid one is neither stored nor, by the callers,
        memoized.  Returns one validity flag per job.
        """
        valid: List[bool] = []
        for job, result, payload in zip(jobs, batch, batch.payloads):
            ok = bool(job.validate(result))
            if not ok:
                get_metrics().inc("runner.invalid_results")
            elif job.cacheable and self.cache is not None:
                self.cache.store(job, payload)
            valid.append(ok)
        return valid

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
        """In-flight (pending + running) submitted jobs."""
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
        per_request_jobs = self.plan_jobs(requests)
        flat: List[SolveJob] = [job for jobs in per_request_jobs for job in jobs]
        resolved = self.run_jobs(flat)

        # Merge chunks back per request, in submission order.
        results: List[SolveResult] = []
        cursor = 0
        for jobs in per_request_jobs:
            chunk_results = resolved[cursor:cursor + len(jobs)]
            cursor += len(jobs)
            results.append(merge_job_results(jobs, chunk_results))
        return results
