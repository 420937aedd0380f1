"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file once per run (and once per extra set-up sample
with ``--setup-only``).  It imports the program, sets the workload up, does
one untimed warm-up op, then times a fixed number of ops: ``--seconds`` times
the workload's nominal op rate (at least its minimum op count).  The count
depends on nothing but the arguments, so every run of a seed does the same
work however fast the host or the program is.  The last line of its standard
output is one JSON object with the raw samples and checks; ``run.py`` turns
it into the benchmark's metrics.

The host sampler (``common.HostSampler``) starts with the process and
times its kernel every 50 ms until the record is printed; each op's time
is kept raw (less the sampler's time) and scaled to the reference host
speed.  With ``--trace 1`` the first half of the ops is an untraced
reference phase; then the layer wrappers are installed and the second half
is traced.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HERE,
    OUT_DIR,
    SRC,
    HostSampler,
    child_env,
    median,
    op_seed,
)
from tracing import NO_OP  # noqa: E402

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Failure messages kept per run (the count is always exact).
MAX_FAILURE_MESSAGES = 20

#: Iterations of the untimed warm-up op: enough to run every code path once.
WARMUP_ITERATIONS = 2

#: Warm reruns per cold op: warm ops are short, so a run can afford more
#: samples of them.
WARM_REPS = 3


class Run:
    """What one run measured: timed samples per op kind, failures, results."""

    def __init__(self, sampler: Optional[HostSampler] = None) -> None:
        #: Seconds per op kind, less the host sampler's time.
        self.samples: Dict[str, List[float]] = {}
        #: ``samples`` at the reference host speed (as they are without a
        #: sampler).
        self.scaled: Dict[str, List[float]] = {}
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.accuracies: List[float] = []
        self.exact: List[bool] = []
        self.digests: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def timed(
        self,
        kind: str,
        fn: Callable[[], Any],
        check: Optional[Callable[[Any], Optional[str]]] = None,
        tracer=None,
        op_id: str = NO_OP,
    ) -> Any:
        """Time one op; a raise or a failed check counts it as failed.

        Failed ops are left out of the timing samples.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.set_op(op_id)
        sampler = self.sampler
        try:
            spent = sampler.spent if sampler is not None else 0.0
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span(f"op.{kind}"):
                    result = fn()
            else:
                result = fn()
            end = time.perf_counter()
            elapsed = end - start - ((sampler.spent - spent) if sampler is not None else 0.0)
        except Exception as exc:  # noqa: BLE001 - a failed op is data, not a crash
            self.fail(f"{kind} op {op_id}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.set_op(NO_OP)
        problem = check(result) if check is not None else None
        if problem is not None:
            self.fail(f"{kind} op {op_id}: {problem}")
            return None
        self.samples.setdefault(kind, []).append(elapsed)
        if sampler is not None:
            elapsed = sampler.scale(elapsed, start, end)
        self.scaled.setdefault(kind, []).append(elapsed)
        return result


def _coloring_digest(result) -> str:
    nodes = result.graph.nodes
    payload = [
        [item.seed, [item.coloring.color_of(node) for node in nodes]]
        for item in result.iterations
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _same_result(first, second) -> Optional[str]:
    if _coloring_digest(first) != _coloring_digest(second):
        return "warm result differs from the cold result"
    if [item.accuracy for item in first.iterations] != [item.accuracy for item in second.iterations]:
        return "warm accuracies differ from the cold ones"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class PaperWorkload:
    """King's-graph solves through ``ExperimentRunner(workers=1).run_jobs``.

    One op unit is a *cold* solve with a fresh seed (computed, then stored
    in a fresh per-op cache) followed by ``WARM_REPS`` *warm* reruns of the
    same job, each on a new runner over that cache (load and decode only).
    """

    block = 1

    def __init__(self, name: str, rows: int, precision: str, iterations: int,
                 ops_per_second: float, accuracy_ops: int, min_trace_ops: int,
                 min_op_accuracy: Optional[float], check_digest: bool) -> None:
        self.name = name
        self.ops_per_second = ops_per_second
        self.rows = rows
        self.precision = precision
        self.iterations = iterations
        self.min_ops = accuracy_ops
        self.min_trace_ops = min_trace_ops
        self.min_op_accuracy = min_op_accuracy
        self.check_digest = check_digest
        self.first_job = None
        self.first_digest: Optional[str] = None

    def imports(self) -> None:
        from repro.core.config import MSROPMConfig
        from repro.runtime import jobs
        from repro.runtime.runner import ExperimentRunner

        self.MSROPMConfig, self.jobs, self.ExperimentRunner = MSROPMConfig, jobs, ExperimentRunner

    def setup(self, workdir: Path, seed: int, trace: bool) -> Dict[str, float]:
        self.workdir = workdir
        self.seed = seed
        self.config = self.MSROPMConfig(precision=self.precision)
        self.spec = self.jobs.KingsGraphSpec(self.rows, self.rows)
        start = time.perf_counter()
        self.jobs.build_machine(self.spec, self.config)
        return {"build_s": time.perf_counter() - start}

    def _job(self, seed: int, iterations: Optional[int] = None):
        return self.jobs.SolveJob(
            spec=self.spec, config=self.config, seed=seed,
            total_iterations=iterations or self.iterations,
        )

    def _check_cold(self, result, iterations: Optional[int] = None) -> Optional[str]:
        iterations = iterations or self.iterations
        if len(result.iterations) != iterations:
            return f"{len(result.iterations)} iterations, expected {iterations}"
        accuracy = sum(item.accuracy for item in result.iterations) / iterations
        if self.min_op_accuracy is not None and accuracy < self.min_op_accuracy:
            return f"mean accuracy {accuracy:.4f} below {self.min_op_accuracy}"
        return None

    def op(self, run: Run, index: int, tracer=None) -> None:
        seed = op_seed(self.seed, self.name, index)
        job = self._job(seed)
        cache_dir = self.workdir / f"op{index}"
        op_id = str(index)
        cold = run.timed(
            "cold",
            lambda: self.ExperimentRunner(workers=1, cache_dir=cache_dir).run_jobs([job])[0],
            self._check_cold, tracer, op_id,
        )
        if cold is not None:
            for _ in range(WARM_REPS):
                warm_job = self._job(seed)
                run.timed(
                    "warm",
                    lambda: self.ExperimentRunner(workers=1, cache_dir=cache_dir).run_jobs([warm_job])[0],
                    lambda warm: _same_result(cold, warm), tracer, op_id,
                )
            if index < self.min_ops:
                run.accuracies.extend(item.accuracy for item in cold.iterations)
                run.exact.extend(item.accuracy == 1.0 for item in cold.iterations)
                run.digests.append(_coloring_digest(cold))
            if self.first_job is None:
                self.first_job, self.first_digest = job, _coloring_digest(cold)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def warmup(self, run: Run) -> None:
        job = self._job(op_seed(self.seed, self.name, -1), WARMUP_ITERATIONS)
        result = self.ExperimentRunner(workers=1, cache_dir=None).run_jobs([job])[0]
        problem = self._check_cold(result, WARMUP_ITERATIONS)
        if problem is not None:
            run.fail(f"warm-up op: {problem}")

    def finish(self, run: Run) -> None:
        """The exact tier is bit-identical per seed: re-solve the first op."""
        if not self.check_digest or self.first_job is None:
            return
        fresh = self._job(self.first_job.seed)
        again = self.ExperimentRunner(workers=1, cache_dir=None).run_jobs([fresh])[0]
        run.attempted += 1
        if _coloring_digest(again) != self.first_digest:
            run.fail("re-solving the first op's seed gave different colorings")

    def close(self) -> None:
        pass


class SuiteWorkload:
    """The ``suite`` campaign, cold on a fresh cache and ledger, then
    ``WARM_REPS`` times warm on that cache."""

    min_trace_ops = 1
    block = 1
    ops_per_second = 0.125

    def __init__(self, scale: float, iterations: Optional[int], accuracy_ops: int) -> None:
        self.name = "suite-campaign"
        self.scale = scale
        self.iterations = iterations
        self.min_ops = accuracy_ops

    def imports(self) -> None:
        from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign
        from repro.experiments import fig5_accuracy, suite, table1_stats, table2_comparison  # noqa: F401
        from repro.runtime.runner import ExperimentRunner

        self.RunLedger, self.get_campaign = RunLedger, get_campaign
        self.ledger_root, self.run_campaign = ledger_root, run_campaign
        self.render_figure5 = fig5_accuracy.render_figure5
        self.ExperimentRunner = ExperimentRunner

    def setup(self, workdir: Path, seed: int, trace: bool) -> Dict[str, float]:
        self.workdir = workdir
        self.seed = seed
        self.spec = self.get_campaign("suite")
        return {"build_s": 0.0}

    def _campaign(self, cache_dir: Path, seed: int, iterations: Optional[int] = None):
        runner = self.ExperimentRunner(workers=1, cache_dir=cache_dir)
        ledger = self.RunLedger(self.ledger_root(cache_dir))
        params: Dict[str, Any] = {"scale": self.scale, "seed": seed}
        if iterations or self.iterations:
            params["iterations"] = iterations or self.iterations
        return self.run_campaign(self.spec, params, runner=runner, ledger=ledger)

    def _report(self, campaign) -> str:
        output = campaign.final_output
        return "\n".join(
            [output.table1.render(), output.table2.render(), self.render_figure5(output.figure5)]
        )

    def op(self, run: Run, index: int, tracer=None) -> None:
        seed = op_seed(self.seed, self.name, index)
        cache_dir = self.workdir / f"op{index}"
        op_id = str(index)
        cold = run.timed("cold", lambda: self._campaign(cache_dir, seed), None, tracer, op_id)
        if cold is not None:
            cold_report = self._report(cold)

            def check_warm(warm) -> Optional[str]:
                if warm.runner_stats["jobs_run"] != 0:
                    return f"warm rerun computed {warm.runner_stats['jobs_run']} job(s)"
                if self._report(warm) != cold_report:
                    return "warm report is not byte-identical to the cold report"
                return None

            for _ in range(WARM_REPS):
                run.timed("warm", lambda: self._campaign(cache_dir, seed), check_warm, tracer, op_id)
            if index < self.min_ops:
                rows = cold.final_output.table1.rows
                run.accuracies.extend(row.mean_accuracy for row in rows)
                run.digests.append(hashlib.sha256(cold_report.encode()).hexdigest())
        shutil.rmtree(cache_dir, ignore_errors=True)

    def warmup(self, run: Run) -> None:
        cache_dir = self.workdir / "warmup"
        self._campaign(cache_dir, op_seed(self.seed, self.name, -1), WARMUP_ITERATIONS)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def finish(self, run: Run) -> None:
        pass

    def close(self) -> None:
        pass


class ServiceWorkload:
    """``msropm serve --workers 1`` driven by one closed-loop client.

    The client replays a seeded trace in blocks of ten times (one miss, four
    hits) plus one coalesced burst.  A miss submits a new small solve and
    polls every ``POLL_INTERVAL_S`` until it is done; a hit resubmits an
    earlier finished job; a burst sends ``BURST`` identical new submits back
    to back, then waits once.
    """

    POLL_INTERVAL_S = 0.002
    BURST = 4
    HITS_PER_MISS = 4
    MISSES_PER_BURST = 10
    ops_per_second = 51.0

    def __init__(self, rows: int, iterations: int, accuracy_misses: int, min_trace_ops: int) -> None:
        self.name = "service-mixed"
        self.rows = rows
        self.iterations = iterations
        self.accuracy_misses = accuracy_misses
        #: Op counts are whole blocks of the trace, so every run has the same mix.
        self.block = self.MISSES_PER_BURST * (1 + self.HITS_PER_MISS) + 1
        self.min_ops = (accuracy_misses // self.MISSES_PER_BURST + 1) * self.block
        self.min_trace_ops = min_trace_ops
        self.proc: Optional[subprocess.Popen] = None
        self.done_seeds: List[int] = []
        self.misses = 0
        self.miss_requests = 0
        self.tracer = None

    def imports(self) -> None:
        from repro.analysis.results_io import solve_result_from_dict
        from repro.service.client import ServiceClient

        self.ServiceClient, self.decode = ServiceClient, solve_result_from_dict

    def setup(self, workdir: Path, seed: int, trace: bool) -> Dict[str, float]:
        self.workdir = workdir
        self.seed = seed
        cache_dir = workdir / "cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.trace_out = workdir / "server-trace.json"
        flags = [
            "--workers", "1", "--cache-dir", str(cache_dir), "--port", "0",
            "--rate", "1000000000", "--burst", "1000000000", "--max-pending", "1000000",
        ]
        if trace:
            command = [sys.executable, str(HERE / "serve_traced.py"), *flags,
                       "--trace-out", str(self.trace_out)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", *flags]
        self.log_path = workdir / "server.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, env=child_env(), stdout=log, stderr=subprocess.STDOUT, cwd=workdir
            )
        endpoint = cache_dir / "service" / "endpoint.json"
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: {self._log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not publish its endpoint within 60 s")
            try:
                record = json.loads(endpoint.read_text(encoding="utf-8"))
                break
            except (OSError, ValueError):
                time.sleep(0.005)
        self.client = self.ServiceClient(f"http://{record['host']}:{record['port']}",
                                         client_id="perfbench")
        while True:
            try:
                status, _, _ = self.client.request("GET", "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer /v1/healthz within 60 s")
            time.sleep(0.005)
        return {"build_s": 0.0}

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        except OSError:
            return ""

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body=None):
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span("client.request"):
                return self.client.request(method, path, body)
        return self.client.request(method, path, body)

    def _pause(self) -> None:
        """Wait one poll interval, as a span of its own when traced, so the
        client's deliberate waiting is not left in the residual."""
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span("client.poll_wait"):
                time.sleep(self.POLL_INTERVAL_S)
        else:
            time.sleep(self.POLL_INTERVAL_S)

    def _spec(self, seed: int) -> Dict[str, Any]:
        return {"kind": "solve", "rows": self.rows, "iterations": self.iterations, "seed": seed}

    def _submit(self, seed: int, op_id: str) -> Dict[str, Any]:
        body = {"protocol": 1, "client": "perfbench", "jobs": [self._spec(seed)]}
        status, payload, _ = self._request("POST", f"/v1/submit?op={op_id}", body)
        if status != 200:
            raise RuntimeError(f"submit answered {status}: {payload.get('error')}")
        return payload["tickets"][0]

    def _wait(self, ticket: Dict[str, Any], op_id: str) -> Dict[str, Any]:
        """Poll until the ticket is done, fetching the result with the last poll."""
        requests = 0
        while not (ticket.get("state") == "done" and "result" in ticket):
            if ticket.get("state") == "failed":
                raise RuntimeError(f"ticket failed: {ticket.get('error')}")
            if ticket.get("state") != "done":
                self._pause()
            status, ticket, _ = self._request(
                "GET", f"/v1/tickets/{ticket['ticket_id']}?result=1&op={op_id}"
            )
            requests += 1
            if status != 200:
                raise RuntimeError(f"poll answered {status}: {ticket.get('error')}")
        ticket["requests"] = requests
        return ticket

    def _decoded(self, ticket: Dict[str, Any]):
        result = self.decode(ticket["result"])
        if len(result.iterations) != self.iterations:
            raise RuntimeError(f"result has {len(result.iterations)} iterations")
        return result

    def _jobs_run(self) -> int:
        status, payload, _ = self.client.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"stats answered {status}")
        return int(payload["runner"]["jobs_run"])

    def kind_of(self, index: int) -> str:
        block = self.MISSES_PER_BURST * (1 + self.HITS_PER_MISS)
        position = index % (block + 1)
        if position == block:
            return "burst"
        return "miss" if position % (1 + self.HITS_PER_MISS) == 0 else "hit"

    def op(self, run: Run, index: int, tracer=None) -> None:
        kind = self.kind_of(index)
        op_id = str(index)
        seed = op_seed(self.seed, self.name, index)
        if kind == "hit" and not self.done_seeds:
            kind = "miss"
        if kind == "miss":
            def miss():
                ticket = self._wait(self._submit(seed, op_id), op_id)
                return ticket, self._decoded(ticket)

            outcome = run.timed("miss", miss, None, tracer, op_id)
            if outcome is not None:
                ticket, result = outcome
                self.done_seeds.append(seed)
                if tracer is not None:
                    self.misses += 1
                    self.miss_requests += 1 + ticket["requests"]
                if len(run.accuracies) < self.accuracy_misses * self.iterations:
                    run.accuracies.extend(item.accuracy for item in result.iterations)
                    run.exact.extend(item.accuracy == 1.0 for item in result.iterations)
        elif kind == "hit":
            chosen = random.Random(seed).choice(self.done_seeds)

            def hit_check(ticket) -> Optional[str]:
                if ticket.get("state") != "done":
                    return f"hit answered state {ticket.get('state')!r}, not 'done'"
                return None

            run.timed("hit", lambda: self._submit(chosen, op_id), hit_check, tracer, op_id)
        else:
            before = self._jobs_run()

            def burst():
                tickets = [self._submit(seed, op_id) for _ in range(self.BURST)]
                ticket = self._wait(tickets[0], op_id)
                self._decoded(ticket)
                return tickets

            def burst_check(tickets) -> Optional[str]:
                if len({ticket["ticket_id"] for ticket in tickets}) != 1:
                    return "burst submits did not share one ticket"
                executed = self._jobs_run() - before
                return None if executed == 1 else f"burst executed {executed} times, not once"

            if run.timed("burst", burst, burst_check, tracer, op_id) is not None:
                self.done_seeds.append(seed)

    def warmup(self, run: Run) -> None:
        seed = op_seed(self.seed, self.name, -1)
        self._decoded(self._wait(self._submit(seed, NO_OP), NO_OP))
        self._submit(seed, NO_OP)
        self.done_seeds.append(seed)

    def registry(self) -> Dict[str, float]:
        status, payload, _ = self.client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return _registry_values(payload["metrics"])

    def enable_server_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.2)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``)."""
        try:
            for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def finish(self, run: Run) -> None:
        pass

    def close(self) -> None:
        """Stop the server (SIGINT, then SIGKILL) and wait until it has ended."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def make_workload(name: str, smoke: bool = False):
    """The workload ``name`` at benchmark size, or tiny under ``smoke``.

    The nominal op rates (``ops_per_second``: op units per ``--seconds``) are
    about what a 2-vCPU host does; they only set how many ops a run times.
    """
    if name == "paper-49":
        return PaperWorkload(name, rows=7, precision="exact", iterations=8 if smoke else 40,
                             ops_per_second=2.3, accuracy_ops=2 if smoke else 30,
                             min_trace_ops=1 if smoke else 4, min_op_accuracy=None,
                             check_digest=True)
    if name == "paper-2116":
        if smoke:
            return PaperWorkload(name, rows=12, precision="throughput", iterations=8,
                                 ops_per_second=0.25, accuracy_ops=2, min_trace_ops=1,
                                 min_op_accuracy=0.9, check_digest=False)
        return PaperWorkload(name, rows=46, precision="throughput", iterations=40,
                             ops_per_second=0.16, accuracy_ops=3, min_trace_ops=1,
                             min_op_accuracy=0.95, check_digest=False)
    if name == "service-mixed":
        return ServiceWorkload(rows=5, iterations=2, accuracy_misses=5 if smoke else 100,
                               min_trace_ops=12 if smoke else 60)
    if name == "suite-campaign":
        if smoke:
            return SuiteWorkload(scale=0.08, iterations=2, accuracy_ops=1)
        return SuiteWorkload(scale=0.25, iterations=None, accuracy_ops=2)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _registry_values(snapshot: Dict[str, Any]) -> Dict[str, float]:
    values: Dict[str, float] = dict(snapshot.get("counters", {}))
    timing = snapshot.get("timings", {}).get("scheduler.batch_seconds", {})
    values["scheduler.batch_s"] = float(timing.get("total_s", 0.0))
    return values


def _in_process_registry() -> Dict[str, float]:
    from repro.obs.metrics import get_metrics

    return _registry_values(get_metrics().snapshot())


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def op_count(workload, seconds: float, min_ops: int) -> int:
    """Op units a phase of ``seconds`` times: a function of the arguments only."""
    count = max(min_ops, math.ceil(seconds * workload.ops_per_second))
    return -(-count // workload.block) * workload.block


def run_phase(workload, run: Run, count: int, first_index: int, tracer=None) -> List[str]:
    """Time ``count`` op units, indices ``first_index`` on."""
    ids: List[str] = []
    for index in range(first_index, first_index + count):
        workload.op(run, index, tracer)
        ids.append(str(index))
    return ids


def _traced_phase(workload, run: Run, count: int, first_index: int,
                  spans_stem: Path) -> Dict[str, Any]:
    """Install the layer wrappers, time ``count`` more op units, compute the layers.

    The spans are written to ``<spans_stem>.json`` (and, for the service, the
    server's to ``<spans_stem>-server.json``).
    """
    import layers
    from tracing import Tracer, undo_all

    service = isinstance(workload, ServiceWorkload)
    reference_kind = "hit" if service else "cold"
    untraced = list(run.scaled.get(reference_kind, []))
    run.samples, run.scaled = {}, {}
    tracer = Tracer()
    if service:
        workload.enable_server_tracing()
        workload.tracer = tracer
        before = workload.registry()
        undo: List[Callable] = []
    else:
        from repro.runtime.jobs import MACHINE_MEMO_STATS

        undo = layers.install(tracer)
        before = _in_process_registry()
        memo_before = dict(MACHINE_MEMO_STATS)
    try:
        ops = run_phase(workload, run, count, first_index, tracer)
    finally:
        undo_all(undo)
    extra: Dict[str, float] = {}
    if service:
        delta = _delta(workload.registry(), before)
        workload.close()
        server_text = workload.trace_out.read_text(encoding="utf-8")
        spans_stem.with_name(spans_stem.name + "-server.json").write_text(server_text)
        server = json.loads(server_text)
        aggregates = _merge(tracer.aggregates(), server["aggregates"])
        marks = server["extra"]
        executed = marks["executed"]
        memo = _delta(marks["memo_at_exit"], marks["memo_at_enable"])
        extra["service.requests_per_miss"] = (
            workload.miss_requests / workload.misses if workload.misses else 0.0
        )
    else:
        delta = _delta(_in_process_registry(), before)
        aggregates = tracer.aggregates()
        executed = tracer.executed
        memo = _delta(dict(MACHINE_MEMO_STATS), memo_before)
    tracer.dump(spans_stem.with_name(spans_stem.name + ".json"))
    extra["jobs.machine_builds"] = memo.get("builds", 0.0)
    extra["jobs.machine_memo_hits"] = memo.get("hits", 0.0)
    extra["runner.executions_per_distinct_hash"] = (
        sum(executed.values()) / len(executed) if executed else 0.0
    )
    traced = run.scaled.get(reference_kind, [])
    extra["trace.overhead_ratio"] = (
        median(traced) / median(untraced) if traced and untraced else 0.0
    )
    return {
        "ops": ops,
        "aggregates": aggregates,
        "registry_delta": delta,
        "extra": extra,
        "blocking": layers.blocking_self_times(aggregates, ops),
    }


def _merge(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for kind in ("self", "main_self", "counts"):
        table: Dict[str, Dict[str, float]] = {}
        for source in (first, second):
            for op, values in source.get(kind, {}).items():
                bucket = table.setdefault(op, {})
                for name, value in values.items():
                    bucket[name] = bucket.get(name, 0.0) + value
        merged[kind] = table
    return merged


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 setup_only: bool = False, started: float = STARTED,
                 out_dir: Path = OUT_DIR, sampler: Optional[HostSampler] = None) -> Dict[str, Any]:
    """One run: imports, set-up, warm-up, timed ops (and the traced half).

    ``sampler`` is the host sampler started with the process; without one,
    the run starts (and stops) its own.
    """
    own_sampler = sampler is None
    if sampler is None:
        sampler = HostSampler()
        sampler.start()
    workload = make_workload(name, smoke)
    workload.imports()
    imported_at = time.monotonic()
    workdir = out_dir / "tmp" / f"{name}-{os.getpid()}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = workload.setup(workdir, seed, trace)
        ready_at = time.monotonic()
        record: Dict[str, Any] = {
            "ready_at": ready_at,
            "setup_kernel_s": sampler.kernel_during(0.0, time.perf_counter()),
            "setup_sampler_s": sampler.spent,
            "import_s": imported_at - started,
            "build_s": setup["build_s"],
        }
        if setup_only:
            return record
        run = Run(sampler)
        workload.warmup(run)
        if not trace:
            run_phase(workload, run, op_count(workload, seconds, workload.min_ops), 0)
        else:
            half = op_count(workload, seconds / 2.0, workload.min_trace_ops)
            first = run_phase(workload, run, half, 0)
            spans_dir = out_dir / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            record["trace"] = _traced_phase(workload, run, half, len(first),
                                            spans_dir / f"{name}-seed{seed}")
            record["trace"]["extra"]["setup.import_s"] = record["import_s"]
            record["trace"]["extra"]["setup.build_s"] = record["build_s"]
        workload.finish(run)
        if isinstance(workload, ServiceWorkload):
            record["peak_rss_mb"] = workload.peak_rss_mb()
        else:
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(
            samples=run.samples,
            scaled=run.scaled,
            kernels_s=sampler.kernels,
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
            mean_accuracy=(sum(run.accuracies) / len(run.accuracies)) if run.accuracies else 0.0,
            exact_fraction=(sum(run.exact) / len(run.exact)) if run.exact else 0.0,
            digests=run.digests,
        )
        return record
    finally:
        if own_sampler:
            sampler.stop()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sampler = HostSampler()
    sampler.start()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              smoke=args.smoke, setup_only=args.setup_only, sampler=sampler)
    finally:
        sampler.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
