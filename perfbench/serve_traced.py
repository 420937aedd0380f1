"""``msropm serve`` with the benchmark's layer wrappers, for traced runs.

Installs the wrappers of :mod:`layers` with tracing switched off, starts the
public ``run_server`` on one ``ExperimentRunner(workers=1)`` (as
``msropm serve --workers 1`` does), and switches tracing on at ``SIGUSR1``.
On ``SIGINT`` the server shuts down and the spans, per-op aggregates and
machine-memo counters are written to ``--trace-out``.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py --cache-dir DIR --trace-out FILE [--workers 1]
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC  # noqa: E402

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--burst", type=float, required=True)
    parser.add_argument("--max-pending", type=int, required=True)
    args = parser.parse_args()

    from repro.runtime.jobs import MACHINE_MEMO_STATS
    from repro.runtime.runner import ExperimentRunner
    from repro.service.server import run_server

    tracer = Tracer()
    tracer.enabled = False
    layers.install(tracer)
    marks = {"memo_at_enable": dict(MACHINE_MEMO_STATS)}

    def enable(signum, frame) -> None:
        marks["memo_at_enable"] = dict(MACHINE_MEMO_STATS)
        tracer.enabled = True

    signal.signal(signal.SIGUSR1, enable)
    with ExperimentRunner(
        workers=args.workers, cache_dir=args.cache_dir, max_pending=args.max_pending
    ) as runner:
        code = run_server(runner, args.cache_dir, port=args.port, rate=args.rate,
                          burst=args.burst)
    tracer.enabled = False
    marks["memo_at_exit"] = dict(MACHINE_MEMO_STATS)
    marks["executed"] = tracer.executed
    tracer.dump(Path(args.trace_out), extra=marks)
    return code


if __name__ == "__main__":
    sys.exit(main())
