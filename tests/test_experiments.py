"""Tests for the experiment harness (Figures 3 and 5, Tables 1 and 2, design trade-offs)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.baselines import SingleStageROPM
from repro.circuit import PAPER_POWER_MW
from repro.core import MSROPM
from repro.experiments import (
    FIGURE5_SIZES,
    PAPER_ITERATIONS,
    TABLE1_SIZES,
    default_config,
    paper_problem,
    power_scaling_series,
    render_figure3,
    render_figure5,
    run_experiment,
    run_figure3,
    run_table2,
    scaled_iterations,
    scaled_problem,
)
from repro.experiments.fig5_accuracy import Figure5Result
from repro.graphs import kings_graph


class TestProblems:
    def test_paper_problem_sizes(self):
        for size in TABLE1_SIZES:
            problem = paper_problem(size)
            assert problem.graph.num_nodes == size
            assert problem.name == f"{size}-node"

    def test_paper_iterations_constant(self):
        assert PAPER_ITERATIONS == 40
        assert set(FIGURE5_SIZES) == {49, 400, 1024}

    def test_scaled_problem_shrinks(self):
        scaled = scaled_problem(1024, scale=0.1)
        assert scaled.graph.num_nodes < 1024
        assert scaled.graph.num_nodes >= 16
        assert scaled_problem(49, scale=1.0).graph.num_nodes == 49

    def test_scaled_iterations(self):
        assert scaled_iterations(1.0) == 40
        assert scaled_iterations(0.1) == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paper_problem(123)
        with pytest.raises(ConfigurationError):
            scaled_problem(49, scale=0.0)
        with pytest.raises(ConfigurationError):
            scaled_iterations(2.0)

    def test_default_config(self):
        config = default_config(seed=5)
        assert config.num_colors == 4
        assert config.seed == 5


class TestFigure3:
    def test_run_and_render(self, fast_config):
        result = run_figure3(rows=3, cols=3, config=fast_config.with_updates(record_every=1), seed=3)
        # After the final SHIL the oscillators occupy at most 4 of the 8 phase bins.
        assert result.final_num_clusters <= 4
        assert len(result.snapshots) == 6
        assert result.waveforms.voltages.shape[1] == len(result.traced_oscillators)
        text = render_figure3(result)
        assert "Figure 3" in text
        assert "shil-2" in text

    def test_two_phase_clustering_after_stage1(self, fast_config):
        result = run_figure3(rows=3, cols=3, config=fast_config.with_updates(record_every=1), seed=4)
        after_shil1 = next(snapshot for snapshot in result.snapshots if snapshot.label == "shil-1")
        # SHIL 1 binarizes phases to (near) 0/180 degrees: bins 0 and 4 of 8.
        assert after_shil1.num_phase_clusters <= 3


class TestFigure5:
    def test_scaled_run_structure(self, fast_config):
        result = run_experiment("fig5", dict(sizes=(49,), iterations=4, scale=0.5, config=fast_config, seed=11))
        series = result.by_size(49)
        assert series.coloring_accuracies.shape == (4,)
        assert series.maxcut_accuracies.shape == (4,)
        assert series.hamming_distances.shape == (6,)
        assert 0.0 <= series.mean_accuracy <= 1.0
        assert series.best_accuracy >= series.mean_accuracy

    def test_render_contains_all_panels(self, fast_config):
        result = run_experiment("fig5", dict(sizes=(49,), iterations=3, scale=0.3, config=fast_config, seed=12))
        text = render_figure5(result)
        assert "Figure 5(a)" in text
        assert "Figure 5(b)" in text
        assert "Figure 5(c)" in text
        assert "correlation" in text

    def test_by_size_missing(self):
        with pytest.raises(KeyError):
            Figure5Result(series=[]).by_size(49)


class TestTable1:
    def test_scaled_rows(self, fast_config):
        result = run_experiment("table1", dict(sizes=(49, 400), iterations=3, scale=0.3, config=fast_config, seed=13))
        assert len(result.rows) == 2
        first = result.rows[0]
        assert first.search_space_text() == "4^49"
        assert first.iterations == 3
        assert 0.0 <= first.top_accuracy <= 1.0
        assert first.average_power_w > 0
        text = result.render()
        assert "Table 1" in text
        assert "4^400" in text

    def test_power_comparison_available(self, fast_config):
        result = run_experiment("table1", dict(sizes=(49,), iterations=2, scale=0.3, config=fast_config, seed=14))
        comparison = result.paper_power_comparison()
        assert 49 in comparison
        assert comparison[49]["paper_mw"] == PAPER_POWER_MW[49]

    def test_power_scaling_series_is_linear_in_size(self):
        series = power_scaling_series()
        assert set(series) == set(TABLE1_SIZES)
        values = [series[size] for size in sorted(series)]
        assert values == sorted(values)
        # Per-node power decreases slightly with size (controller amortization),
        # mirroring the paper's trend.
        per_node = {size: series[size] / size for size in series}
        assert per_node[2116] < per_node[49]


class TestTable2:
    def test_measured_rows_and_render(self, fast_config):
        result = run_table2(
            msropm_nodes=400, comparison_nodes=49, iterations=3, scale=0.3, config=fast_config, seed=15
        )
        text = result.render()
        assert "MSROPM (this work)" in text
        assert "3-SHIL" in text
        assert "ROIM" in text
        assert "cited" in text
        assert result.msropm_accuracies.shape == (3,)
        assert result.ropm_accuracies.shape == (3,)
        assert result.roim_accuracies.shape == (3,)

    #: SHA-256 of ``render()`` and of the three accuracy series at
    #: ``PINNED_KWARGS``, recorded when the baseline rows still ran in-process
    #: (the throughput pair re-recorded when that tier moved to two-point noise).
    PINNED_KWARGS = dict(msropm_nodes=1024, comparison_nodes=400, iterations=4, scale=0.1, seed=15)
    PINNED_DIGESTS = {
        "exact": (
            "88392d688279a826de969468fc829e230d5b5941a25c0656045201345e85a681",
            "f72b46785e64039dac042b72cc7061207f55b30397209432186b276cb9a1c5da",
        ),
        "throughput": (
            "0f36c329cce2d8ce93ee127d92a54ffcc5edc244c9def8c2ac93aae2732fba61",
            "3320917c27f63ced0bdbf012c4cec6186918e2ad5507e6576ece5ab1698066d1",
        ),
    }

    @pytest.mark.parametrize("precision", ["exact", "throughput"])
    def test_report_is_pinned(self, precision):
        """Running the rows as runner jobs changes no byte of the report."""
        result = run_table2(precision=precision, **self.PINNED_KWARGS)
        series = repr(
            (
                result.msropm_accuracies.tolist(),
                result.ropm_accuracies.tolist(),
                result.roim_accuracies.tolist(),
            )
        )
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (result.render(), series)
        )
        assert digests == self.PINNED_DIGESTS[precision]

    def test_msropm_outperforms_single_stage_on_its_problem(self, fast_config):
        """The paper's architectural claim: multi-stage beats single-stage N-SHIL."""
        graph = kings_graph(5, 5)
        multi = MSROPM(graph, fast_config).solve(iterations=4, seed=16)
        single = SingleStageROPM(graph, num_colors=4, config=fast_config).solve(iterations=4, seed=16)
        assert multi.accuracies.mean() >= single.accuracies.mean()


class TestAblations:
    def test_shil_ablation_detects_weak_injection(self, fast_config):
        """Very weak SHIL discretizes poorly; the nominal strength must not be worse."""
        by_strength = {
            strength: MSROPM(kings_graph(4, 4), fast_config.with_updates(shil_strength=strength))
            .solve(iterations=3, seed=18)
            .accuracies.mean()
            for strength in (0.02, 0.25)
        }
        assert by_strength[0.25] >= by_strength[0.02] - 0.05
