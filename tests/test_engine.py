"""Tests for the replica execution engine against the per-seed reference.

:class:`repro.core.engine.BatchedEngine` runs every iteration of a solve as
one ``(R, N)`` batch.  On the exact tier its contract is strict: for the same
seeds it must reproduce the per-seed R=1 runs of
:meth:`repro.core.machine.MSROPM.run_iteration` — colorings, accuracies,
stage records and even the final oscillator phases — bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MSROPM, BatchedEngine, MSROPMConfig
from repro.graphs import Graph, kings_graph
from repro.rng import ReplicaRNG, iteration_seeds, make_rng


def complete_graph(num_nodes: int) -> Graph:
    """A complete graph on integer nodes (density 1.0)."""
    return Graph(edges=[(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)])


def sequential_iterations(machine, iterations: int, seed: int):
    """The per-seed reference: one R=1 ``run_iteration`` per solve seed."""
    return [
        machine.run_iteration(iteration_index=index, seed=item)
        for index, item in enumerate(iteration_seeds(seed, iterations))
    ]


def assert_equivalent_iterations(sequential, batched):
    """Assert two iteration lists are replica-for-replica bit-identical."""
    assert len(sequential) == len(batched)
    for seq_item, bat_item in zip(sequential, batched):
        assert seq_item.iteration_index == bat_item.iteration_index
        assert seq_item.seed == bat_item.seed
        assert seq_item.accuracy == bat_item.accuracy
        assert seq_item.coloring.assignment == bat_item.coloring.assignment
        assert seq_item.run_time == bat_item.run_time
        assert len(seq_item.stage_results) == len(bat_item.stage_results)
        for seq_stage, bat_stage in zip(seq_item.stage_results, bat_item.stage_results):
            assert seq_stage.stage_index == bat_stage.stage_index
            assert seq_stage.cut_value == bat_stage.cut_value
            assert seq_stage.reference_cut == bat_stage.reference_cut
            assert seq_stage.accuracy == bat_stage.accuracy
            assert seq_stage.partition.side_a == bat_stage.partition.side_a
        assert np.array_equal(
            seq_item.stage_results[-1].final_phases,
            bat_item.stage_results[-1].final_phases,
        )


def assert_matches_reference(machine, iterations: int, seed: int):
    batched = machine.solve(iterations=iterations, seed=seed).iterations
    assert_equivalent_iterations(sequential_iterations(machine, iterations, seed), batched)


class TestEngineSelection:
    def test_default_config_uses_batched(self, fast_config):
        """``solve`` is ``BatchedEngine.run`` over the solve's seeds."""
        machine = MSROPM(kings_graph(4, 4), fast_config)
        direct = BatchedEngine().run(machine, iteration_seeds(9, 3))
        assert_equivalent_iterations(direct, machine.solve(iterations=3, seed=9).iterations)

    def test_config_validates_engine_and_backend(self):
        """The precision tier is the only execution choice: naming one of the
        removed engine/backend knobs is an error, not a silent no-op."""
        for removed in ({"engine": "sequential"}, {"coupling_backend": "dense"}):
            with pytest.raises(TypeError):
                MSROPMConfig(**removed)


class TestBatchedSequentialEquivalence:
    def test_bit_identical_on_kings_graph(self, fast_config):
        assert_matches_reference(MSROPM(kings_graph(5, 5), fast_config), 5, 17)

    def test_single_iteration_batch(self, fast_config):
        assert_matches_reference(MSROPM(kings_graph(4, 4), fast_config), 1, 3)

    def test_two_color_single_stage_machine(self, fast_binary_config):
        assert_matches_reference(MSROPM(kings_graph(4, 4), fast_binary_config), 4, 21)

    def test_eight_colors_three_stages(self, fast_config):
        config = fast_config.with_updates(num_colors=8)
        assert_matches_reference(MSROPM(kings_graph(4, 4), config), 3, 5)

    def test_with_frequency_detuning(self, fast_config):
        config = fast_config.with_updates(frequency_detuning_std=0.01)
        assert_matches_reference(MSROPM(kings_graph(4, 4), config), 3, 13)

    def test_auto_dense_graph_end_to_end(self, fast_config):
        """A large complete graph runs on the sparse CSR operators like any other."""
        graph = complete_graph(32)
        machine = MSROPM(graph, fast_config)
        result = machine.solve(iterations=2, seed=1)
        assert all(coloring.covers(graph) for coloring in result.colorings)
        assert_equivalent_iterations(sequential_iterations(machine, 2, 1), result.iterations)


class TestReplicaRNG:
    def test_streams_match_individual_generators(self):
        replica = ReplicaRNG.from_seeds([1, 2, 3])
        stacked = replica.standard_normal((3, 5))
        for row, seed in zip(stacked, [1, 2, 3]):
            assert np.array_equal(row, make_rng(seed).standard_normal(5))

    def test_scalar_size_adds_replica_axis(self):
        replica = ReplicaRNG.from_seeds([4, 5])
        drawn = replica.uniform(0.0, 1.0, size=6)
        assert drawn.shape == (2, 6)
        assert np.array_equal(drawn[1], make_rng(5).uniform(0.0, 1.0, size=6))

    def test_noise_block_matches_per_step_draws(self):
        replica = ReplicaRNG.from_seeds([8, 9])
        block = replica.noise_block(4, (2, 3))
        assert block.shape == (4, 2, 3)
        for index, seed in enumerate([8, 9]):
            generator = make_rng(seed)
            expected = np.stack([generator.standard_normal(3) for _ in range(4)])
            assert np.array_equal(block[:, index, :], expected)

    def test_size_validation(self):
        replica = ReplicaRNG.from_seeds([1, 2])
        with pytest.raises(ValueError):
            replica.standard_normal((3, 4))  # wrong replica axis
        with pytest.raises(ValueError):
            ReplicaRNG([])
