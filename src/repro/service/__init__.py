"""Solver-as-a-service: a warm async front door on the experiment runtime.

One long-lived process (``msropm serve``) owns a single
:class:`~repro.runtime.runner.ExperimentRunner` — warm scheduler pool,
in-process machine memos, content-addressed result cache — and serves solve
and scenario submissions over a stdlib-only JSON-over-HTTP protocol, so a
stream of clients amortizes the cold-start tax every one-shot CLI invocation
pays.

The service inherits its semantics from the runtime instead of reinventing
them:

* **Idempotent tickets.**  A ticket id *is* the submitted job's content hash
  (:attr:`repro.runtime.jobs.Job.job_hash`): resubmitting a hash returns the
  same ticket, answered from the memo or the disk cache, never recomputed —
  even across server restarts, because the cache is the durable store.
* **In-flight coalescing.**  N concurrent submissions of one hash attach to
  one pending ticket and one pool slot (:meth:`ExperimentRunner.submit_jobs`).
* **Backpressure.**  Per-client token buckets (:mod:`repro.service.ratelimit`)
  and the runner's bounded submit queue both answer HTTP 429 + ``Retry-After``
  instead of buffering without limit.

Modules: :mod:`~repro.service.protocol` (wire job specs ↔ runtime jobs),
:mod:`~repro.service.ratelimit` (token buckets on an injectable clock),
:mod:`~repro.service.state` (endpoint + ticket-state files, atomic writes),
:mod:`~repro.service.server` (the asyncio front door; not imported here, so
only ``msropm serve`` loads ``asyncio``),
:mod:`~repro.service.client` (the stdlib client the CLI wraps; not imported
here either, so only the ``client`` commands load ``http.client``).
"""

from repro.service.protocol import PROTOCOL_VERSION, build_jobs
from repro.service.ratelimit import RateLimiter
from repro.service.state import ServiceState

__all__ = [
    "PROTOCOL_VERSION",
    "RateLimiter",
    "ServiceState",
    "build_jobs",
]
