"""Helpers shared by the benchmark command, the workload process and the tests."""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Where runs leave their records, spans and per-run working directories.
OUT_DIR = ROOT / ".perfbench-out"

#: Math-library thread caps every benchmark process runs under.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

WORKLOADS = ("paper-49", "paper-2116", "service-mixed", "suite-campaign")


def op_seed(workload_seed: int, workload: str, index: int) -> int:
    """The seed of op ``index`` of a run: a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env() -> Dict[str, str]:
    """Environment of every spawned process: thread caps plus the program's source."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


#: The host kernel's nominal time: scaled timings are seconds at the host
#: speed at which ``HostSampler.kernel``, run in the middle of the ops,
#: takes this long (its median on a 2-vCPU Xeon VM, so scaled and raw times
#: are alike there).
REFERENCE_KERNEL_S = 0.0015


class HostSampler:
    """Times a small fixed kernel every ``interval_s`` on the measuring thread.

    On a shared host the speed of a vCPU drifts by tens of percent within a
    minute and switches between fast and slow spells within seconds; the two
    vCPUs drift apart.  A ``SIGALRM`` handler therefore runs the kernel on
    the thread that runs the ops, in the middle of them, so the kernel sees
    the same spells as the op it interrupts.  ``scale`` turns an op's time
    into seconds at the reference host speed: its time minus the handler's,
    times ``REFERENCE_KERNEL_S`` over the median kernel time during the op.
    The kernel mixes plain-Python dict and float work with float32 trig and
    normal draws, and uses none of the program's code, so a slower program
    still reads slower.  Handler time is about 3% of wall time.
    """

    #: Kernel samples an op is scaled by at least: an op shorter than
    #: ``MIN_SAMPLES`` intervals takes the ones nearest to it.
    MIN_SAMPLES = 3

    def __init__(self, interval_s: float = 0.05) -> None:
        import numpy as np

        self.interval_s = interval_s
        self.times: List[float] = []
        self.kernels: List[float] = []
        #: Seconds spent in the handler so far.
        self.spent = 0.0
        self._np = np
        self._field = np.linspace(0.0, 6.0, 16384, dtype=np.float32)
        self._out = np.empty_like(self._field)
        self._draws = np.random.default_rng(1)

    def kernel(self) -> float:
        """Seconds the kernel takes now."""
        np = self._np
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for value in range(300):
            table[value & 63] = table.get(value & 63, 0) + value
            total += int(math.sin(value) * 8) ^ value
        for _ in range(4):
            np.sin(self._field, out=self._out)
            np.cos(self._out, out=self._out)
            self._draws.standard_normal(self._out.shape, dtype=np.float32, out=self._out)
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        elapsed = self.kernel()
        self.times.append(start)
        self.kernels.append(elapsed)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.kernel()  # first calls pay one-off costs
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_during(self, start: float, end: float) -> float:
        """The median kernel time during ``[start, end]`` (``perf_counter``)."""
        if not self.kernels:
            return self.kernel()
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end)
        if last - first < self.MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2.0)
            first = max(0, min(middle - self.MIN_SAMPLES // 2, len(self.times) - self.MIN_SAMPLES))
            last = first + self.MIN_SAMPLES
        return float(statistics.median(self.kernels[first:last]))

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent in ``[start, end]``, at the reference host speed."""
        return seconds * REFERENCE_KERNEL_S / self.kernel_during(start, end)

    def probe(self, count: int = 50) -> float:
        """The median of ``count`` kernel runs now: the host-speed probe."""
        return float(statistics.median(self.kernel() for _ in range(count)))


def fingerprint() -> Dict[str, object]:
    """The environment a run measured on."""
    import numpy
    import scipy

    blas: Optional[str] = None
    try:
        config = numpy.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name')} {blas_info.get('version')}".strip()
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        blas = None
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    affinity: List[int] = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "nproc": len(affinity) or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
        "git_commit": commit,
    }
