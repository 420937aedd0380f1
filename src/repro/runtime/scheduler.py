"""JobScheduler: batch execution facade over pluggable executor backends.

The scheduler used to be hard-wired to one local
:class:`~concurrent.futures.ProcessPoolExecutor`; it is now a thin,
backend-agnostic facade.  A backend (:mod:`repro.runtime.executors`) turns a
batch of :class:`~repro.runtime.jobs.Job` values into JSON payloads in
submission order; the scheduler's own job is everything that must be
*identical across backends*:

* **Determinism.**  Payloads are collected by submission index, never by
  completion order, and each job's randomness is fully determined by its
  seeds, so a run is bit-identical whether it executed serially, across a
  local pool, or on N fleet processes draining a shared spool.
* **Uniform decode.**  Workers and backends traffic in each job's persisted
  JSON form (the same form the cache stores); the scheduler decodes exactly
  once, so a result is indistinguishable whether it came from the serial
  path, a worker process, a fleet worker on another host, or a cache hit.
  The batch it returns (:class:`DecodedBatch`) keeps the payloads alongside
  the decoded results, so the runner stores what the worker produced
  without encoding the result a second time.
* **Lifecycle.**  Warm backend state (a process pool, spawned fleet workers)
  is released by :meth:`JobScheduler.close`, context-manager exit, or
  garbage collection.

The default backend is :class:`~repro.runtime.executors.LocalPoolExecutorBackend`
(current single-host behavior, serial fast path at ``workers=1``); pass any
other :class:`~repro.runtime.executors.ExecutorBackend` to scale differently.
Worker-environment utilities (thread caps, pool initializer) live in
:mod:`repro.runtime.worker_env` and are re-exported here for compatibility.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.executors import (
    ExecutorBackend,
    LocalPoolExecutorBackend,
    ProgressCallback,
)
from repro.runtime.jobs import Job

# Re-exported for compatibility: these lived here before the backend split.
from repro.runtime.worker_env import (  # noqa: F401
    WORKER_THREAD_CAPS,
    _execute_job,
    _worker_init,
    limit_math_threads,
)


class DecodedBatch(list):
    """Decoded results in submission order, with the payloads they came from.

    A plain list of the decoded results (so callers that only want results
    are unaffected) carrying ``payloads``: the JSON payloads the workers
    produced, aligned with the results.
    """

    def __init__(self, results: Sequence[Any], payloads: Sequence[Dict]) -> None:
        super().__init__(results)
        self.payloads: List[Dict] = list(payloads)


class JobScheduler:
    """Executes batches of :class:`~repro.runtime.jobs.Job` through an
    executor backend.  Any mix of job types can share one batch: each job
    ships its own ``execute`` body and decodes its own payload.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (default) runs jobs inline in the
        calling process.  Ignored when ``backend`` is given.
    thread_caps:
        Environment caps applied to worker math libraries; defaults to
        :data:`~repro.runtime.worker_env.WORKER_THREAD_CAPS` (single-threaded
        BLAS/OpenMP).  Pass an empty dict to leave the environment untouched.
        Ignored when ``backend`` is given.
    backend:
        An explicit :class:`~repro.runtime.executors.ExecutorBackend`; when
        omitted, a local pool backend is built from ``workers``/``thread_caps``.
    """

    def __init__(
        self,
        workers: int = 1,
        thread_caps: Optional[Dict[str, str]] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> None:
        if backend is None:
            backend = LocalPoolExecutorBackend(workers=workers, thread_caps=thread_caps)
        self.backend = backend
        # Serializes cross-thread batches: the runner's blocking run_jobs path
        # and its background drain thread may both dispatch; backends are not
        # required to be re-entrant, so one batch owns the backend at a time.
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """The backend's configured worker parallelism."""
        return self.backend.workers

    @property
    def executor(self) -> str:
        """Registry name of the active backend (``local``, ``spool``, ...)."""
        return self.backend.name

    @property
    def start_method(self) -> str:
        """The multiprocessing start method local worker processes use."""
        return multiprocessing.get_start_method()

    @property
    def thread_caps(self) -> Dict[str, str]:
        """Worker math-library thread caps (empty for cap-less backends)."""
        return dict(getattr(self.backend, "thread_caps", {}))

    @property
    def pool_active(self) -> bool:
        """Whether the backend holds a warm local worker pool."""
        return bool(getattr(self.backend, "pool_active", False))

    @property
    def pools_started(self) -> int:
        """How many local pools the backend has started (0 for non-pool backends)."""
        return int(getattr(self.backend, "pools_started", 0))

    def close(self) -> None:
        """Release the backend's warm state (idempotent); later runs restart it."""
        self.backend.close()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown timing
        try:
            self.backend.abort()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[Job], progress: Optional[ProgressCallback] = None
    ) -> DecodedBatch:
        """Run ``jobs`` and return their decoded results in submission order.

        The returned :class:`DecodedBatch` also carries each job's payload.
        ``progress`` is forwarded to the backend and invoked once per job as
        its payload becomes available (observability only — it must not
        raise and does not affect results).
        """
        jobs = list(jobs)
        if not jobs:
            return DecodedBatch([], [])
        metrics = get_metrics()
        metrics.inc("scheduler.batches")
        metrics.inc("scheduler.jobs_dispatched", len(jobs))
        with self._run_lock:
            with metrics.timer("scheduler.batch_seconds"):
                payloads = self.backend.run_payloads(jobs, progress)
        return DecodedBatch(
            [job.decode(payload) for job, payload in zip(jobs, payloads)], payloads
        )
