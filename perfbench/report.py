"""Trace report: self time per layer per workload, from the latest traced runs.

Usage (from the repository root, after ``run.py ... --trace 1`` runs)::

    python3 perfbench/report.py

For each workload it reads the newest ``.perfbench-out/runs/*-trace1.json``
record and prints the blocking-path self time per op of every layer, the
residual (op time no layer accounts for), the op time, and the tracing
overhead.  It checks that layer self times plus the residual equal the op
time (true by construction of self time) and that the residual stays under
``RESIDUAL_MAX_SHARE`` of the op time (false when a layer on the op's path
loses its wrapper); it exits with 1 when a check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, WORKLOADS  # noqa: E402

#: Allowed mismatch of the sum check: absolute seconds plus a share of the op.
SUM_TOLERANCE_S = 1e-6
SUM_TOLERANCE_SHARE = 1e-6

#: Largest share of the op time the residual may take.  Every workload's
#: op path is wrapped down to its layers, leaving well under 1% of the op
#: time to the op's own glue code; a dropped wrapper leaves far more.
RESIDUAL_MAX_SHARE = 0.05


def latest_traced(runs_dir: Path) -> Dict[str, dict]:
    records: Dict[str, dict] = {}
    for workload in WORKLOADS:
        paths = sorted(runs_dir.glob(f"{workload}-seed*-trace1.json"),
                       key=lambda path: path.stat().st_mtime)
        if paths:
            records[workload] = json.loads(paths[-1].read_text(encoding="utf-8"))
    return records


def check(record: dict) -> Optional[str]:
    """``None`` when layer self times plus the residual equal the op time and
    the residual is within ``RESIDUAL_MAX_SHARE`` of it."""
    layers = record["blocking_self_s_per_op"]
    op_time = record["metrics"]["trace.op_s"]
    residual = record["metrics"]["trace.residual_s"]
    total = sum(layers.values())
    if abs(total - op_time) > SUM_TOLERANCE_S + SUM_TOLERANCE_SHARE * op_time:
        return f"layers + residual = {total:.6f} s, op time = {op_time:.6f} s"
    if residual > RESIDUAL_MAX_SHARE * op_time:
        return (f"residual {residual:.6f} s is more than {RESIDUAL_MAX_SHARE:.0%} "
                f"of the op time {op_time:.6f} s: a layer on the op's path is not wrapped")
    return None


def render(records: Dict[str, dict]) -> str:
    workloads = list(records)
    names: List[str] = sorted(
        {name for record in records.values() for name in record["blocking_self_s_per_op"]
         if not name.startswith("op.")}
    )
    width = max([len(name) for name in names] + [24])
    header = f"{'self time per op (ms)':<{width}}" + "".join(f"{w:>16}" for w in workloads)
    lines = [header, "-" * len(header)]

    def row(label: str, values: List[float], fmt: str = "{:16.3f}") -> None:
        lines.append(f"{label:<{width}}" + "".join(fmt.format(value) for value in values))

    for name in names:
        row(name, [records[w]["blocking_self_s_per_op"].get(name, 0.0) * 1e3 for w in workloads])
    lines.append("-" * len(header))
    row("residual", [records[w]["metrics"]["trace.residual_s"] * 1e3 for w in workloads])
    row("op time", [records[w]["metrics"]["trace.op_s"] * 1e3 for w in workloads])
    row("tracing overhead (x)", [records[w]["metrics"]["trace.overhead_ratio"] for w in workloads])
    lines.append(f"{'checks':<{width}}" + "".join(
        f"{'ok' if check(records[w]) is None else 'MISMATCH':>16}" for w in workloads))
    return "\n".join(lines)


def main() -> int:
    records = latest_traced(OUT_DIR / "runs")
    if not records:
        print("no traced runs found; run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 2
    print(render(records))
    problems = [f"{w}: {check(r)}" for w, r in records.items() if check(r) is not None]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
