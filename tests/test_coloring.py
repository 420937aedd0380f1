"""Tests for the Coloring data structure and classical heuristics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ColoringError
from repro.graphs import (
    Coloring,
    count_proper_edges,
    cycle_graph,
    dsatur_coloring,
    greedy_coloring,
    kings_graph,
    kings_graph_reference_coloring,
    complete_graph,
    random_coloring,
    welsh_powell_coloring,
)


class TestColoring:
    def test_valid_construction(self):
        coloring = Coloring(assignment={1: 0, 2: 1}, num_colors=2)
        assert coloring.color_of(1) == 0
        assert coloring.used_colors() == {0, 1}

    def test_out_of_range_color(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={1: 5}, num_colors=4)

    def test_non_integer_color(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={1: 0.5}, num_colors=4)

    def test_zero_colors(self):
        with pytest.raises(ColoringError):
            Coloring(assignment={}, num_colors=0)

    def test_missing_node_raises(self):
        coloring = Coloring(assignment={1: 0}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.color_of(2)

    def test_conflicts_and_accuracy(self):
        graph = cycle_graph(4)
        proper = Coloring(assignment={0: 0, 1: 1, 2: 0, 3: 1}, num_colors=2)
        improper = Coloring(assignment={0: 0, 1: 0, 2: 0, 3: 0}, num_colors=2)
        assert proper.is_proper(graph)
        assert proper.accuracy(graph) == 1.0
        assert improper.num_conflicts(graph) == 4
        assert improper.accuracy(graph) == 0.0

    def test_accuracy_empty_graph(self):
        from repro.graphs import Graph

        graph = Graph(nodes=[1, 2])
        coloring = Coloring(assignment={1: 0, 2: 0}, num_colors=2)
        assert coloring.accuracy(graph) == 1.0

    def test_color_classes(self):
        coloring = Coloring(assignment={1: 0, 2: 0, 3: 1}, num_colors=2)
        classes = coloring.color_classes()
        assert classes[0] == {1, 2}
        assert classes[1] == {3}

    def test_array_round_trip(self):
        graph = cycle_graph(5)
        coloring = random_coloring(graph, 3, seed=1)
        array = coloring.as_array(graph)
        back = Coloring.from_array(graph, array, 3)
        assert back.assignment == coloring.assignment

    def test_from_array_wrong_length(self):
        with pytest.raises(ColoringError):
            Coloring.from_array(cycle_graph(4), [0, 1], 2)

    def test_from_array_checks_range_and_dtype_like_the_constructor(self):
        graph = cycle_graph(4)
        with pytest.raises(ColoringError, match=r"color 2 of node 2 outside \[0, 2\)"):
            Coloring.from_array(graph, np.array([0, 1, 2, 0], dtype=np.uint8), 2)
        with pytest.raises(ColoringError, match=r"color -1 of node 1 outside"):
            Coloring.from_array(graph, [0, -1, 0, 1], 2)
        with pytest.raises(ColoringError, match="must be an integer"):
            Coloring.from_array(graph, [0.0, 1.0, 0.0, 1.0], 2)
        with pytest.raises(ColoringError, match="num_colors must be positive"):
            Coloring.from_array(graph, [0, 0, 0, 0], 0)
        coloring = Coloring.from_array(graph, np.array([0, 1, 0, 1], dtype=np.uint8), 2)
        assert coloring == Coloring(assignment={0: 0, 1: 1, 2: 0, 3: 1}, num_colors=2)
        assert all(type(color) is int for color in coloring.assignment.values())

    def test_constructor_normalizes_mixed_and_wide_integers(self):
        coloring = Coloring(assignment={0: np.uint64(1), 1: 0, 2: True}, num_colors=2)
        assert coloring.assignment == {0: 1, 1: 0, 2: 1}
        assert all(type(color) is int for color in coloring.assignment.values())
        with pytest.raises(ColoringError, match=r"color -1 of node 1 outside"):
            Coloring(assignment={0: np.uint64(1), 1: -1}, num_colors=2)
        with pytest.raises(ColoringError, match=r"of node 0 outside"):
            Coloring(assignment={0: 2**70}, num_colors=2)
        with pytest.raises(ColoringError, match=r"color of node 1 must be an integer"):
            Coloring(assignment={0: 0, 1: "a"}, num_colors=2)

    def test_as_array_uncovered(self):
        graph = cycle_graph(4)
        coloring = Coloring(assignment={0: 0}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.as_array(graph)

    def test_relabeled_preserves_propriety(self):
        graph = cycle_graph(6)
        coloring = Coloring.from_array(graph, [0, 1, 0, 1, 0, 1], 2)
        swapped = coloring.relabeled({0: 1, 1: 0})
        assert swapped.is_proper(graph)
        assert swapped.color_of(0) == 1

    def test_relabeled_missing_color(self):
        coloring = Coloring(assignment={1: 0, 2: 1}, num_colors=2)
        with pytest.raises(ColoringError):
            coloring.relabeled({0: 1})

    def test_count_proper_edges(self):
        graph = cycle_graph(4)
        coloring = Coloring.from_array(graph, [0, 1, 0, 0], 2)
        # Edges (0,1) and (1,2) are properly colored; (2,3) and (3,0) are monochromatic.
        assert count_proper_edges(graph, coloring) == 2


class TestHeuristics:
    def test_greedy_is_proper(self):
        graph = kings_graph(5, 5)
        coloring = greedy_coloring(graph)
        assert coloring.is_proper(graph)

    def test_welsh_powell_is_proper(self):
        graph = kings_graph(5, 5)
        assert welsh_powell_coloring(graph).is_proper(graph)

    def test_dsatur_is_proper_and_tight_on_kings(self):
        graph = kings_graph(6, 6)
        coloring = dsatur_coloring(graph)
        assert coloring.is_proper(graph)
        assert len(coloring.used_colors()) == 4  # King's graphs are 4-chromatic

    def test_dsatur_complete_graph(self):
        graph = complete_graph(5)
        coloring = dsatur_coloring(graph)
        assert coloring.is_proper(graph)
        assert len(coloring.used_colors()) == 5

    def test_greedy_respects_requested_palette_floor(self):
        graph = cycle_graph(4)
        coloring = greedy_coloring(graph, num_colors=6)
        assert coloring.num_colors == 6

    def test_random_coloring_range(self):
        graph = kings_graph(4, 4)
        coloring = random_coloring(graph, 4, seed=3)
        assert coloring.covers(graph)
        assert coloring.used_colors() <= {0, 1, 2, 3}

    def test_random_coloring_invalid_colors(self):
        with pytest.raises(ColoringError):
            random_coloring(cycle_graph(3), 0)


class TestKingsReference:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (5, 5), (7, 7), (6, 9)])
    def test_reference_coloring_proper(self, rows, cols):
        graph = kings_graph(rows, cols)
        coloring = kings_graph_reference_coloring(rows, cols)
        assert coloring.is_proper(graph)
        assert coloring.accuracy(graph) == 1.0

    def test_reference_coloring_uses_four_colors(self):
        coloring = kings_graph_reference_coloring(4, 4)
        assert coloring.used_colors() == {0, 1, 2, 3}

    def test_reference_coloring_invalid_dims(self):
        with pytest.raises(ColoringError):
            kings_graph_reference_coloring(0, 3)


class TestColoringProperties:
    @given(side=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_accuracy_between_zero_and_one(self, side, seed):
        graph = kings_graph(side, side)
        coloring = random_coloring(graph, 4, seed=seed)
        accuracy = coloring.accuracy(graph)
        assert 0.0 <= accuracy <= 1.0

    @given(side=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_dsatur_never_beats_clique_bound(self, side):
        graph = kings_graph(side, side)
        coloring = dsatur_coloring(graph)
        # King's graphs contain 4-cliques (2x2 blocks), so at least 4 colors are needed.
        assert len(coloring.used_colors()) >= 4

    @given(
        permutation=st.permutations(list(range(4))),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_accuracy_invariant_under_relabeling(self, permutation, seed):
        graph = kings_graph(4, 4)
        coloring = random_coloring(graph, 4, seed=seed)
        relabeled = coloring.relabeled(dict(enumerate(permutation)))
        assert relabeled.accuracy(graph) == pytest.approx(coloring.accuracy(graph))
