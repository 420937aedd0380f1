"""Benchmark: regenerate Table 1 (search space, iterations, average power, top accuracy).

Also prints the modeled-vs-paper power comparison, since the power column is
the part of Table 1 that depends on the circuit model rather than on solving.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.analysis import format_table
from repro.circuit import PAPER_POWER_MW
from repro.experiments import TABLE1_SIZES, power_scaling_series, run_experiment


@pytest.fixture(scope="module")
def table1_sizes(bench_scale):
    """Problem sizes for Table 1 (the paper uses 49/400/1024/2116)."""
    return TABLE1_SIZES if bench_scale == 1.0 else (49, 400, 1024)


def test_bench_table1_statistics(benchmark, bench_config, bench_scale, bench_iterations, table1_sizes):
    result = run_once(
        benchmark,
        run_experiment,
        "table1",
        dict(
            sizes=table1_sizes,
            iterations=bench_iterations,
            scale=bench_scale,
            config=bench_config,
            seed=2025,
        ),
    )
    print()
    print(result.render())
    print()
    print("Paper Table 1 reference: top accuracy 1.00 / 0.98 / 0.97 / 0.97,")
    print("power 9.4 / 60.3 / 146.1 / 283.4 mW for 49 / 400 / 1024 / 2116 nodes.")
    for row in result.rows:
        assert row.top_accuracy >= 0.9
        assert row.top_accuracy >= row.mean_accuracy


def test_bench_table1_power_scaling(benchmark):
    """The power column of Table 1: modeled power vs the paper, at full problem sizes."""
    series = run_once(benchmark, power_scaling_series, sizes=TABLE1_SIZES)
    rows = []
    for size in TABLE1_SIZES:
        modeled_mw = series[size] * 1e3
        paper_mw = PAPER_POWER_MW[size]
        rows.append([f"{size}-node", f"{modeled_mw:.1f} mW", f"{paper_mw:.1f} mW",
                     f"{modeled_mw / paper_mw:.2f}x"])
    print()
    print(format_table(("Graph size", "Modeled power", "Paper power", "Ratio"), rows,
                       title="Table 1 power column: bottom-up model vs paper"))
    # The model must scale monotonically and stay within 2x of the paper's numbers.
    values = [series[size] for size in TABLE1_SIZES]
    assert values == sorted(values)
    for size in TABLE1_SIZES:
        assert series[size] * 1e3 == pytest.approx(PAPER_POWER_MW[size], rel=1.0)
