"""Tests for the MSROPM configuration, metrics and result containers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError, ConfigurationError
from repro.circuit import TimingPlan
from repro.core import (
    MSROPM,
    MSROPMConfig,
    IterationResult,
    SolveResult,
    StageResult,
    accuracy_statistics,
    coloring_accuracy,
    hamming_distance,
    maxcut_accuracy,
    min_hamming_distance,
    pairwise_color_distances,
    pairwise_hamming_distances,
    stage_correlation,
    success_probability,
)
from repro.graphs import (
    Bipartition,
    Coloring,
    Graph,
    balanced_halves,
    kings_graph,
    kings_graph_reference_coloring,
    random_coloring,
)
from repro.units import as_ns, ns


class TestConfig:
    def test_defaults_match_paper(self):
        config = MSROPMConfig()
        assert config.num_colors == 4
        assert config.num_stages == 2
        assert as_ns(config.total_run_time) == pytest.approx(60.0)
        assert config.oscillator_frequency == pytest.approx(1.3e9)

    def test_power_of_two_colors_required(self):
        with pytest.raises(ConfigurationError):
            MSROPMConfig(num_colors=3)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(num_colors=1)
        assert MSROPMConfig(num_colors=8).num_stages == 3

    def test_rates_scale_with_frequency(self):
        config = MSROPMConfig()
        assert config.coupling_rate == pytest.approx(config.coupling_strength * 2 * np.pi * 1.3e9)
        assert config.shil_rate == pytest.approx(config.shil_strength * 2 * np.pi * 1.3e9)

    def test_coupling_strength_cap(self):
        """Section 2.3: too-strong couplings halt the oscillation."""
        with pytest.raises(ConfigurationError):
            MSROPMConfig(coupling_strength=0.9)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(coupling_strength=0.0)

    def test_shil_strength_cap(self):
        """Section 2.3: too-strong SHIL deforms the waveforms."""
        with pytest.raises(ConfigurationError):
            MSROPMConfig(shil_strength=1.5)

    def test_eight_color_run_time(self):
        config = MSROPMConfig(num_colors=8)
        assert as_ns(config.total_run_time) == pytest.approx(90.0)

    def test_phase_noise_diffusion_positive(self):
        assert MSROPMConfig().phase_noise_diffusion > 0
        assert MSROPMConfig(jitter_fraction=0.0).phase_noise_diffusion == 0.0

    def test_with_updates_and_seed(self):
        config = MSROPMConfig(seed=1)
        assert config.with_seed(7).seed == 7
        assert config.with_updates(coupling_strength=0.2).coupling_strength == 0.2
        with pytest.raises(ConfigurationError):
            config.with_updates(coupling_strength=0.9)

    def test_other_validations(self):
        with pytest.raises(ConfigurationError):
            MSROPMConfig(time_step=0.0)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(record_every=0)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(jitter_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(stage2_reinit_jitter=-1.0)
        with pytest.raises(ConfigurationError):
            MSROPMConfig(oscillator_frequency=0.0)


class TestMetrics:
    def test_coloring_accuracy_reference(self):
        graph = kings_graph(5, 5)
        reference = kings_graph_reference_coloring(5, 5)
        assert coloring_accuracy(graph, reference) == 1.0

    def test_coloring_accuracy_requires_coverage(self):
        graph = kings_graph(3, 3)
        with pytest.raises(AnalysisError):
            coloring_accuracy(graph, Coloring(assignment={(0, 0): 0}, num_colors=4))

    def test_maxcut_accuracy(self):
        graph = kings_graph(4, 4)
        partition = balanced_halves(graph)
        accuracy = maxcut_accuracy(graph, partition, reference_cut=graph.num_edges)
        assert 0.0 <= accuracy <= 1.0

    def test_maxcut_accuracy_clipped_at_one(self):
        graph = kings_graph(4, 4)
        partition = balanced_halves(graph)
        assert maxcut_accuracy(graph, partition, reference_cut=1) == 1.0

    def test_hamming_distance_basic(self):
        graph = kings_graph(3, 3)
        a = kings_graph_reference_coloring(3, 3)
        assert hamming_distance(a, a, graph.nodes) == 0.0
        b = a.relabeled({0: 1, 1: 0, 2: 3, 3: 2})
        assert hamming_distance(a, b, graph.nodes) == 1.0
        assert min_hamming_distance(a, b, graph.nodes) == 0.0

    def test_min_hamming_distance_detects_real_differences(self):
        graph = kings_graph(3, 3)
        a = kings_graph_reference_coloring(3, 3)
        changed = dict(a.assignment)
        changed[(0, 0)] = (changed[(0, 0)] + 1) % 4
        b = Coloring(assignment=changed, num_colors=4)
        assert min_hamming_distance(a, b, graph.nodes) == pytest.approx(1.0 / 9.0)

    def test_min_hamming_color_limit(self):
        graph = kings_graph(2, 2)
        coloring = Coloring(assignment={node: 0 for node in graph.nodes}, num_colors=7)
        with pytest.raises(AnalysisError):
            min_hamming_distance(coloring, coloring, graph.nodes)

    def test_hamming_requires_nodes(self):
        coloring = Coloring(assignment={1: 0}, num_colors=2)
        with pytest.raises(AnalysisError):
            hamming_distance(coloring, coloring, [])

    def test_pairwise_hamming_count(self):
        graph = kings_graph(3, 3)
        colorings = [random_coloring(graph, 4, seed=i) for i in range(5)]
        distances = pairwise_hamming_distances(colorings, graph.nodes)
        assert distances.shape == (10,)
        assert np.all((0.0 <= distances) & (distances <= 1.0))
        assert pairwise_hamming_distances(colorings[:1], graph.nodes).size == 0

    def test_accuracy_statistics(self):
        stats = accuracy_statistics([0.9, 1.0, 0.95])
        assert stats["best"] == 1.0
        assert stats["worst"] == 0.9
        assert stats["count"] == 3
        with pytest.raises(AnalysisError):
            accuracy_statistics([])

    def test_stage_correlation(self):
        stage1 = [0.8, 0.9, 1.0, 0.95]
        final = [0.82, 0.91, 0.99, 0.96]
        assert stage_correlation(stage1, final) > 0.9
        assert stage_correlation([0.5, 0.5, 0.5], [0.4, 0.6, 0.8]) == 0.0
        with pytest.raises(AnalysisError):
            stage_correlation([1.0], [1.0])

    def test_success_probability(self):
        assert success_probability([1.0, 0.9, 1.0, 0.8]) == pytest.approx(0.5)
        assert success_probability([0.97, 0.99], threshold=0.95) == 1.0
        with pytest.raises(AnalysisError):
            success_probability([])

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_min_hamming_is_lower_bound_and_metric_like(self, seed):
        graph = kings_graph(3, 3)
        a = random_coloring(graph, 4, seed=seed)
        b = random_coloring(graph, 4, seed=seed + 1000)
        plain = hamming_distance(a, b, graph.nodes)
        invariant = min_hamming_distance(a, b, graph.nodes)
        assert invariant <= plain + 1e-12
        assert min_hamming_distance(a, a, graph.nodes) == 0.0


def _per_node_distance(first, second, nodes):
    """The Hamming distance by its per-node definition."""
    return sum(1 for node in nodes if first.color_of(node) != second.color_of(node)) / len(nodes)


def _per_node_min_distance(first, second, nodes):
    """The label-invariant distance by definition: the per-node count under
    every renaming of the second coloring's palette."""
    num_colors = max(first.num_colors, second.num_colors)
    best = 1.0
    for permutation in itertools.permutations(range(num_colors)):
        count = sum(
            1 for node in nodes if first.color_of(node) != permutation[second.color_of(node)]
        )
        best = min(best, count / len(nodes))
    return best


class TestHammingOverArrays:
    """The matrix-based distances equal the per-node definition bit for bit."""

    @given(
        seed=st.integers(0, 2**31),
        num_colors=st.integers(1, 6),
        num_nodes=st.integers(1, 30),
        num_rows=st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_distances_match_the_per_node_definition(self, seed, num_colors, num_nodes, num_rows):
        rng = np.random.default_rng(seed)
        nodes = [("n", index) for index in range(num_nodes)]
        # Few distinct colors per row, so renamings often matter.
        colorings = [
            Coloring.from_array(
                Graph(nodes=nodes),
                rng.integers(0, rng.integers(1, num_colors + 1), size=num_nodes),
                num_colors,
            )
            for _ in range(num_rows)
        ]
        pairs = list(itertools.combinations(colorings, 2))
        plain = pairwise_hamming_distances(colorings, nodes)
        invariant = pairwise_hamming_distances(colorings, nodes, label_invariant=True)
        assert plain.tolist() == [_per_node_distance(a, b, nodes) for a, b in pairs]
        assert invariant.tolist() == [_per_node_min_distance(a, b, nodes) for a, b in pairs]
        first, second = colorings[:2]
        assert hamming_distance(first, second, nodes) == _per_node_distance(first, second, nodes)
        assert min_hamming_distance(first, second, nodes) == _per_node_min_distance(
            first, second, nodes
        )
        rows = np.array([[c.color_of(node) for node in nodes] for c in colorings], dtype=np.uint8)
        assert pairwise_color_distances(rows, num_colors).tolist() == plain.tolist()
        assert pairwise_color_distances(rows, num_colors, label_invariant=True).tolist() == (
            invariant.tolist()
        )

    def test_solve_result_distances_use_the_color_matrix(self):
        graph = kings_graph(4, 4)
        result = MSROPM(graph, MSROPMConfig(seed=4)).solve(iterations=4)
        assert result.color_matrix().tolist() == [
            [item.coloring.color_of(node) for node in graph.nodes] for item in result.iterations
        ]
        for invariant in (False, True):
            assert result.hamming_distances(invariant).tolist() == pairwise_hamming_distances(
                result.colorings, graph.nodes, label_invariant=invariant
            ).tolist()

    def test_label_invariant_color_limit(self):
        rows = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(AnalysisError, match="at most 6 colors"):
            pairwise_color_distances(rows, 8, label_invariant=True)
        assert pairwise_color_distances(rows, 8).tolist() == [0.0]


def _iteration(index, accuracy, stage1_accuracy, graph):
    coloring = kings_graph_reference_coloring(3, 3)
    stage = StageResult(
        stage_index=1,
        partition=balanced_halves(graph),
        cut_value=10,
        reference_cut=20,
        accuracy=stage1_accuracy,
    )
    return IterationResult(
        iteration_index=index,
        seed=index,
        coloring=coloring,
        accuracy=accuracy,
        stage_results=[stage],
        run_time=60e-9,
    )


class TestResults:
    def test_solve_result_aggregates(self):
        graph = kings_graph(3, 3)
        iterations = [
            _iteration(0, 0.95, 0.9, graph),
            _iteration(1, 1.0, 0.97, graph),
            _iteration(2, 0.97, 0.93, graph),
        ]
        result = SolveResult(graph=graph, num_colors=4, iterations=iterations)
        assert result.num_iterations == 3
        assert result.best_accuracy == 1.0
        assert result.best.iteration_index == 1
        assert result.num_exact_solutions == 1
        assert result.accuracies.tolist() == [0.95, 1.0, 0.97]
        assert result.stage1_accuracies.tolist() == [0.9, 0.97, 0.93]
        assert result.accuracy_summary()["mean"] == pytest.approx(np.mean([0.95, 1.0, 0.97]))
        assert result.stage_correlation() > 0.9
        assert result.average_run_time() == pytest.approx(60e-9)
        assert result.hamming_distances().shape == (3,)

    def test_solve_result_requires_iterations(self):
        with pytest.raises(AnalysisError):
            SolveResult(graph=kings_graph(2, 2), num_colors=4, iterations=[])

    def test_iteration_result_flags(self):
        graph = kings_graph(3, 3)
        exact = _iteration(0, 1.0, 1.0, graph)
        assert exact.is_exact
        assert exact.stage1_accuracy == 1.0
        no_stage = IterationResult(
            iteration_index=0, seed=0, coloring=kings_graph_reference_coloring(3, 3), accuracy=0.9
        )
        assert no_stage.stage1_accuracy == 1.0
