"""The benchmark command: one run of one workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-49 --seed 1 --seconds 16 --trace 0

Each run starts fresh interpreters (``worker.py``) under single-threaded math
libraries: ``SETUP_SAMPLES - 1`` that only set up, then the one that sets up,
warms up and times ops.  Timings are scaled to the reference host speed by
a kernel each worker times every 50 ms in the middle of its work
(``common.HostSampler``): ``setup_s`` is the median scaled set-up, ``op_s``
and ``warm_s`` the median scaled cold and warm op.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A record of the run (environment fingerprint,
host-speed probe, sample counts and tails, failures, layer self times) is
written to ``.perfbench-out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HERE,
    OUT_DIR,
    ROOT,
    SRC,
    THREAD_CAPS,
    REFERENCE_KERNEL_S,
    WORKLOADS,
    HostSampler,
    child_env,
    fingerprint,
    median,
)

os.environ.update(THREAD_CAPS)

#: Fresh-interpreter set-ups per run (the timed run's own set-up included).
SETUP_SAMPLES = 3

#: A run must end within this many seconds (the benchmark allows 180).
RUN_BUDGET_S = 170.0

#: End-to-end metrics: ``(name, unit)``.
END_TO_END = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("warm_s", "s"),
    ("mean_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Which op kind is a workload's cold op and which its warm op.
OP_KINDS = {"service-mixed": ("miss", "hit")}
DEFAULT_OP_KINDS = ("cold", "warm")


class WorkerFailed(RuntimeError):
    """A workload process exited with an error or ran out of time."""


def spawn_worker(argv: List[str], deadline: float) -> Tuple[Dict[str, Any], float, float]:
    """Run one fresh workload interpreter.

    Returns its record, its set-up time and that time (less the worker's
    sampler time) scaled by the kernel the worker timed while it set up.
    The worker gets its own process group, so a timeout also stops any
    server it started.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise WorkerFailed("worker printed no record")
    record = json.loads(lines[-1])
    setup = record["ready_at"] - spawned
    scaled = (setup - record["setup_sampler_s"]) * REFERENCE_KERNEL_S / record["setup_kernel_s"]
    return record, setup, scaled


def end_to_end(workload: str, record: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    cold, warm = OP_KINDS.get(workload, DEFAULT_OP_KINDS)
    scaled = record["scaled"]
    return {
        "setup_s": median(setups),
        "op_s": median(scaled.get(cold, [0.0])),
        "warm_s": median(scaled.get(warm, [0.0])),
        "mean_accuracy": record["mean_accuracy"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def sample_summary(samples: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    """Count, min, p50 and p90 (ms) per op kind; p90 only with ten samples beyond it."""
    summary = {}
    for kind, values in samples.items():
        entry = {"n": len(values), "min_ms": min(values) * 1e3, "p50_ms": median(values) * 1e3}
        if len(values) >= 100:
            entry["p90_ms"] = statistics.quantiles(values, n=10, method="inclusive")[8] * 1e3
        summary[kind] = entry
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's source ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    base_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])

    probe = HostSampler()
    probe_before = probe.probe()
    raw_setups, setups = [], []
    for index in range(SETUP_SAMPLES):
        extra = ["--setup-only"] if index < SETUP_SAMPLES - 1 else ["--trace", str(args.trace)]
        record, raw, scaled = spawn_worker(base_args + extra, deadline)
        raw_setups.append(raw)
        setups.append(scaled)
    probe_after = probe.probe()

    correct = record["failed"] == 0 and record["attempted"] > 0
    if args.trace:
        import layers

        trace = record["trace"]
        values = layers.per_layer_metrics(
            trace["aggregates"], trace["ops"], trace["registry_delta"], trace["extra"]
        )
        units = dict(layers.PER_LAYER)
    else:
        values = end_to_end(args.workload, record, setups)
        units = dict(END_TO_END)
        correct = correct and all(values[name] > 0 for name in values)

    side = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint(),
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "host_kernels_s": record["kernels_s"],
        "setup_samples_s": raw_setups,
        "setup_scaled_s": setups,
        "import_s": record["import_s"],
        "build_s": record["build_s"],
        "ops": sample_summary(record["samples"]),
        "samples_s": record["samples"],
        "scaled_s": record["scaled"],
        "exact_fraction": record["exact_fraction"],
        "mean_accuracy": record["mean_accuracy"],
        "digests": record["digests"],
        "failures": record["failures"],
        "metrics": values,
    }
    if args.trace:
        side["blocking_self_s_per_op"] = {
            name: value / max(1, len(record["trace"]["ops"]))
            for name, value in sorted(record["trace"]["blocking"].items())
        }
    runs = OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(side, indent=2), encoding="utf-8"
    )
    for message in record["failures"]:
        print(f"perfbench: failed op: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
