"""The layer table: which program entry points the traced run wraps, and how
the recorded spans and counts become the per-layer metrics.

Layers are named after the program's modules.  Every span metric is the
layer's *self time per timed op* (span time minus child-span time), except
``engine.run_s`` and ``campaigns.stage_s.*``, which are inclusive (their self
time is ``engine.score_decode_self_s`` and the report's stage rows).
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, List, Mapping

from tracing import NO_OP, Tracer, patch_function, patch_method

#: Per-layer metrics in the order they are reported: ``(name, unit)``.
#: ``BENCHMARK.json`` lists exactly these.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("engine.run_s", "s"),
    ("engine.score_decode_self_s", "s"),
    ("stages.stage1_s", "s"),
    ("stages.stage2_s", "s"),
    ("stages.operator_build_s", "s"),
    ("stages.operator_builds", "count"),
    ("stages.scalar_stage_s", "s"),
    ("stages.scalar_stage_calls", "count"),
    ("integrators.anneal_s", "s"),
    ("integrators.shil_s", "s"),
    ("integrators.steps", "count"),
    ("integrators.recorded_em_s", "s"),
    ("batched.coupling_apply_s", "s"),
    ("batched.coupling_applies", "count"),
    ("batched.rhs_self_s", "s"),
    ("batched.coupling_bytes_computed", "bytes"),
    ("kuramoto.rhs_s", "s"),
    ("rng.noise_block_s", "s"),
    ("rng.noise_values", "count"),
    ("jobs.execute_s", "s"),
    ("jobs.build_machine_s", "s"),
    ("jobs.hash_s", "s"),
    ("jobs.hashes", "count"),
    ("jobs.encode_s", "s"),
    ("jobs.decode_s", "s"),
    ("jobs.machine_builds", "count"),
    ("jobs.machine_memo_hits", "count"),
    ("cache.load_s", "s"),
    ("cache.store_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_written", "bytes"),
    ("runner.submit_s", "s"),
    ("runner.run_jobs_s", "s"),
    ("runner.queue_wait_s", "s"),
    ("runner.tickets_issued", "count"),
    ("runner.tickets_coalesced", "count"),
    ("runner.tickets_cache_served", "count"),
    ("runner.executions_per_distinct_hash", "ratio"),
    ("scheduler.batches", "count"),
    ("scheduler.jobs_dispatched", "count"),
    ("scheduler.batch_s", "s"),
    ("service.requests", "count"),
    ("service.requests_per_miss", "ratio"),
    ("service.handle_s", "s"),
    ("service.transport_s", "s"),
    ("service.state_flush_s", "s"),
    ("service.state_flushes", "count"),
    ("campaigns.stage_s.table1", "s"),
    ("campaigns.stage_s.table2", "s"),
    ("campaigns.stage_s.fig5", "s"),
    ("campaigns.stage_s.report", "s"),
    ("campaigns.ledger_appends", "count"),
    ("campaigns.ledger_append_s", "s"),
    ("experiments.table2_s", "s"),
    ("baselines.roim_s", "s"),
    ("baselines.single_stage_s", "s"),
    ("trace.op_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.sum_error_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: Span metric -> layer span name, reported as self time per op.
SELF_TIME = {
    "engine.score_decode_self_s": "engine.run",
    "stages.stage1_s": "stages.stage1",
    "stages.stage2_s": "stages.stage2",
    "stages.operator_build_s": "stages.operator_build",
    "stages.scalar_stage_s": "stages.scalar_stage",
    "integrators.anneal_s": "integrators.anneal",
    "integrators.shil_s": "integrators.shil",
    "integrators.recorded_em_s": "integrators.recorded_em",
    "batched.coupling_apply_s": "batched.coupling_apply",
    "batched.rhs_self_s": "batched.rhs",
    "kuramoto.rhs_s": "kuramoto.rhs",
    "rng.noise_block_s": "rng.noise_block",
    "jobs.execute_s": "jobs.execute",
    "jobs.build_machine_s": "jobs.build_machine",
    "jobs.hash_s": "jobs.hash",
    "jobs.encode_s": "jobs.encode",
    "jobs.decode_s": "jobs.decode",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "runner.submit_s": "runner.submit",
    "runner.run_jobs_s": "runner.run_jobs",
    "service.handle_s": "service.handle",
    "service.state_flush_s": "service.state_flush",
    "campaigns.ledger_append_s": "campaigns.ledger_append",
    "experiments.table2_s": "experiments.table2",
    "baselines.roim_s": "baselines.roim",
    "baselines.single_stage_s": "baselines.single_stage",
}

#: Count metric -> counter name (``<layer>.calls`` counts spans).
COUNTS = {
    "stages.operator_builds": "stages.operator_build.calls",
    "stages.scalar_stage_calls": "stages.scalar_stage.calls",
    "integrators.steps": "integrators.steps",
    "batched.coupling_applies": "batched.coupling_apply.calls",
    "batched.coupling_bytes_computed": "batched.coupling_bytes",
    "rng.noise_values": "rng.noise_values",
    "jobs.hashes": "jobs.hash.calls",
    "cache.bytes_written": "cache.bytes_written",
    "runner.queue_wait_s": "runner.queue_wait_s",
    "service.state_flushes": "service.state_flush.calls",
    "campaigns.ledger_appends": "campaigns.ledger_append.calls",
}

#: Inclusive-time metric -> span name.
INCLUSIVE = {
    "engine.run_s": "engine.run",
    "campaigns.stage_s.table1": "campaigns.stage.table1",
    "campaigns.stage_s.table2": "campaigns.stage.table2",
    "campaigns.stage_s.fig5": "campaigns.stage.fig5",
    "campaigns.stage_s.report": "campaigns.stage.report",
}

#: Count metric -> counter of the program's own metrics registry.
REGISTRY_COUNTERS = {
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.stores": "cache.stores",
    "runner.tickets_issued": "runner.tickets_issued",
    "runner.tickets_coalesced": "runner.tickets_coalesced",
    "runner.tickets_cache_served": "runner.tickets_cache_served",
    "scheduler.batches": "scheduler.batches",
    "scheduler.jobs_dispatched": "scheduler.jobs_dispatched",
    "service.requests": "service.requests",
}

#: Root spans of the timed ops (their self time is the residual).
OP_PREFIX = "op."

#: The client-side span around one HTTP round trip (service workload).
REQUEST_SPAN = "client.request"


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _stage_name(args, kwargs) -> str:
    phases = _arg(args, kwargs, 2, "phases")
    if getattr(phases, "ndim", 1) == 1:
        return "stages.scalar_stage"
    return f"stages.stage{_arg(args, kwargs, 1, 'stage_index')}"


def _steps(args, kwargs) -> int:
    duration = _arg(args, kwargs, 2, "duration")
    dt = _arg(args, kwargs, 3, "dt")
    return int(math.ceil(duration / dt))


def _em_final_name(args, kwargs) -> str:
    import numpy as np

    rhs = _arg(args, kwargs, 0, "rhs")
    shil = np.asarray(getattr(rhs, "shil_strength", 0.0))
    return "integrators.anneal" if not np.any(shil) else "integrators.shil"


def _count_steps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("integrators.steps", _steps(args, kwargs))


def _count_coupling_bytes(passes: int) -> Callable:
    def counter(tracer: Tracer, args, kwargs, result) -> None:
        matrix = args[0].matrix
        matrix_bytes = (
            matrix.nnz * (matrix.indices.itemsize + matrix.data.itemsize)
            + matrix.indptr.nbytes
        )
        fields = [value for value in args[1:] if hasattr(value, "nbytes")]
        state_bytes = 2 * sum(field.nbytes for field in fields)
        tracer.count("batched.coupling_bytes", passes * matrix_bytes + state_bytes)

    return counter


def _count_noise(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("rng.noise_values", getattr(result, "size", 0))


def _count_store_bytes(tracer: Tracer, args, kwargs, result) -> None:
    cache, job = args[0], args[1]
    if job.cacheable:
        try:
            tracer.count("cache.bytes_written", cache.path_for(job.job_hash).stat().st_size)
        except OSError:
            pass


def _count_execution(tracer: Tracer, args, kwargs, result) -> None:
    job = args[0]
    if job.cacheable:
        tracer.executed[job.job_hash] = tracer.executed.get(job.job_hash, 0) + 1


def install(tracer: Tracer) -> List[Callable]:
    """Wrap every layer's entry points; returns the undo list."""
    import time

    from repro import rng
    from repro.baselines import roim_maxcut, single_stage_ropm
    from repro.campaigns import ledger, orchestrator
    from repro.core import engine, stages
    from repro.dynamics import batched, integrators, kuramoto
    from repro.experiments import table2_comparison
    from repro.runtime import cache, jobs, runner, scheduler
    from repro.service import server, state

    undo: List[Callable] = []
    method = functools.partial(patch_method, tracer, undo=undo)
    function = functools.partial(patch_function, tracer, undo=undo)

    method(engine.BatchedEngine, "run", "engine.run")
    method(stages.StageExecutor, "run_stage", _stage_name)
    method(stages.CouplingPlan, "operator", "stages.operator_build")
    function(integrators, "euler_maruyama_final", _em_final_name, counter=_count_steps)
    function(integrators, "integrate_euler_maruyama", "integrators.recorded_em",
             counter=_count_steps)
    method(batched.FastSharedCoupling, "apply_pair", "batched.coupling_apply",
           counter=_count_coupling_bytes(1))
    method(batched.FastSharedCoupling, "apply", "batched.coupling_apply",
           counter=_count_coupling_bytes(1))
    method(batched.FastBlockDiagonalCoupling, "apply_pair", "batched.coupling_apply",
           counter=_count_coupling_bytes(2))
    method(batched.FastBlockDiagonalCoupling, "apply", "batched.coupling_apply",
           counter=_count_coupling_bytes(1))
    method(batched.BatchedOscillatorModel, "evaluate_into", "batched.rhs")
    method(batched.ThroughputOscillatorModel, "evaluate_into", "batched.rhs")
    method(kuramoto.CoupledOscillatorModel, "evaluate_into", "kuramoto.rhs")
    method(rng.ReplicaRNG, "noise_block", "rng.noise_block", counter=_count_noise)
    method(rng.ThroughputRNG, "noise_block", "rng.noise_block", counter=_count_noise)
    method(jobs.SolveJob, "execute", "jobs.execute", counter=_count_execution)
    method(jobs.SolveJob, "encode", "jobs.encode")
    method(jobs.SolveJob, "decode", "jobs.decode")
    function(jobs, "build_machine", "jobs.build_machine")
    hash_property = jobs.Job.__dict__["job_hash"]
    traced_hash = functools.cached_property(tracer.wrap(hash_property.func, "jobs.hash"))
    traced_hash.__set_name__(jobs.Job, "job_hash")
    jobs.Job.job_hash = traced_hash
    undo.append(lambda: setattr(jobs.Job, "job_hash", hash_property))
    method(cache.ResultCache, "load", "cache.load")
    method(cache.ResultCache, "store", "cache.store", counter=_count_store_bytes)
    method(runner.ExperimentRunner, "run_jobs", "runner.run_jobs")

    def record_submissions(tracer_: Tracer, args, kwargs, tickets) -> None:
        now, op = time.perf_counter(), tracer_.current_op()
        for ticket in tickets:
            if ticket.state == runner.TICKET_PENDING:
                tracer_.submitted[ticket.ticket_id] = (now, op)

    method(runner.ExperimentRunner, "submit_jobs", "runner.submit", counter=record_submissions)

    # The drain thread's batch: attribute it to the op that queued it and
    # record how long its jobs waited.
    original_run = scheduler.JobScheduler.run

    @functools.wraps(original_run)
    def scheduler_run(self, jobs_, progress=None):
        jobs_ = list(jobs_)
        queued = [
            tracer.submitted.pop(job.job_hash, None) for job in jobs_ if job.cacheable
        ]
        queued = [entry for entry in queued if entry is not None]
        if queued and tracer.enabled:
            now = time.perf_counter()
            tracer.set_op(queued[0][1])
            for submitted_at, op in queued:
                tracer.count("runner.queue_wait_s", now - submitted_at, op=op)
        try:
            return original_run(self, jobs_, progress)
        finally:
            if queued:
                tracer.set_op(NO_OP)

    scheduler.JobScheduler.run = scheduler_run
    undo.append(lambda: setattr(scheduler.JobScheduler, "run", original_run))

    traced_handle = tracer.wrap(server.SolverService.handle, "service.handle")
    original_handle = server.SolverService.handle

    @functools.wraps(original_handle)
    def handle(self, method_, target, body):
        _, _, query = target.partition("?")
        op = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair
        ).get("op", NO_OP)
        tracer.set_op(op)
        try:
            return traced_handle(self, method_, target, body)
        finally:
            tracer.set_op(NO_OP)

    server.SolverService.handle = handle
    undo.append(lambda: setattr(server.SolverService, "handle", original_handle))
    method(state.ServiceState, "record_tickets", "service.state_flush")
    function(orchestrator, "_run_stage",
             lambda args, kwargs: f"campaigns.stage.{_arg(args, kwargs, 0, 'stage').name}")
    method(ledger.RunLedger, "append", "campaigns.ledger_append")
    function(table2_comparison, "run_table2", "experiments.table2")
    method(roim_maxcut.ROIMMaxCut, "solve", "baselines.roim")
    method(single_stage_ropm.SingleStageROPM, "solve", "baselines.single_stage")
    return undo


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _totals(table: Mapping[str, Mapping[str, float]], ops) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for op in ops:
        for name, value in table.get(op, {}).items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def _op_sum(table: Mapping[str, Mapping[str, float]], ops, name: str) -> float:
    return sum(table.get(op, {}).get(name, 0.0) for op in ops)


def blocking_self_times(aggregates: Mapping, ops) -> Dict[str, float]:
    """Self time per layer summed over ``ops``, main threads only.

    The main threads carry the op's blocking path (the in-process solve, the
    service's event loop); the service's drain thread runs concurrently with
    the client's polls and is reported per layer but left out of this sum.
    The client's request spans are replaced by ``service.transport``: request
    time not spent inside the server's request handling.
    """
    totals = _totals(aggregates["main_self"], ops)
    requests = totals.pop(REQUEST_SPAN, None)
    if requests is not None:
        handled = _op_sum(aggregates["counts"], ops, "service.handle.total_s")
        totals["service.transport"] = requests - handled
    return totals


def per_layer_metrics(
    aggregates: Mapping,
    ops: List[str],
    registry_delta: Mapping[str, float],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """The ``PER_LAYER`` values (per timed op) from one traced run.

    ``aggregates`` is :meth:`Tracer.aggregates` (merged across processes),
    ``registry_delta`` the program registry's counter deltas over the traced
    phase (plus ``scheduler.batch_s``), and ``extra`` the values measured
    outside the spans (setup timings, machine-memo deltas, executions,
    request counts, the overhead ratio).
    """
    count = max(1, len(ops))
    self_table, counts = aggregates["self"], aggregates["counts"]
    values: Dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        values[metric] = _op_sum(self_table, ops, span) / count
    for metric, counter in COUNTS.items():
        values[metric] = _op_sum(counts, ops, counter) / count
    for metric, span in INCLUSIVE.items():
        values[metric] = _op_sum(counts, ops, span + ".total_s") / count
    for metric, counter in REGISTRY_COUNTERS.items():
        values[metric] = registry_delta.get(counter, 0.0) / count
    values["scheduler.batch_s"] = registry_delta.get("scheduler.batch_s", 0.0) / count
    hits, misses = registry_delta.get("cache.hits", 0.0), registry_delta.get("cache.misses", 0.0)
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in ("setup.import_s", "setup.build_s", "trace.overhead_ratio",
                 "runner.executions_per_distinct_hash", "service.requests_per_miss"):
        values[name] = float(extra.get(name, 0.0))
    for name in ("jobs.machine_builds", "jobs.machine_memo_hits"):
        values[name] = float(extra.get(name, 0.0)) / count

    blocking = blocking_self_times(aggregates, ops)
    op_time = sum(
        value for name, value in _totals(counts, ops).items()
        if name.startswith(OP_PREFIX) and name.endswith(".total_s")
    )
    residual = sum(value for name, value in blocking.items() if name.startswith(OP_PREFIX))
    layers = sum(value for name, value in blocking.items() if not name.startswith(OP_PREFIX))
    values["service.transport_s"] = blocking.get("service.transport", 0.0) / count
    values["trace.op_s"] = op_time / count
    values["trace.residual_s"] = residual / count
    values["trace.sum_error_s"] = (op_time - layers - residual) / count
    return {name: values[name] for name, _ in PER_LAYER}

