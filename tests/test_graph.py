"""Tests for the core Graph data structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import Graph, kings_graph


class TestConstruction:
    def test_empty(self):
        graph = Graph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.is_connected()

    def test_add_nodes_and_edges(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert not graph.has_edge("a", "c")

    def test_duplicate_edge_is_idempotent(self):
        graph = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_node_order_is_insertion_order(self):
        graph = Graph(nodes=[3, 1, 2])
        assert graph.nodes == [3, 1, 2]
        assert graph.node_index() == {3: 0, 1: 1, 2: 2}

    def test_from_edges(self):
        graph = Graph.from_edges([(0, 1), (1, 2)], name="path")
        assert graph.name == "path"
        assert graph.num_edges == 2

    def test_contains_len_iter(self):
        graph = Graph(nodes=[1, 2, 3])
        assert 2 in graph
        assert len(graph) == 3
        assert list(iter(graph)) == [1, 2, 3]


class TestMutation:
    def test_remove_edge(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert graph.num_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = Graph(edges=[(1, 2)])
        with pytest.raises(GraphError):
            graph.remove_edge(1, 3)

    def test_remove_node(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        graph.remove_node(2)
        assert graph.num_nodes == 2
        assert graph.num_edges == 0

    def test_remove_missing_node_raises(self):
        with pytest.raises(GraphError):
            Graph().remove_node(5)


def _counted_edges(graph: Graph) -> int:
    """The edge count by definition: half the adjacency degree sum."""
    return sum(graph.degrees().values()) // 2


class TestEdgeCounter:
    """``num_edges`` is a counter the mutators keep; it must match the adjacency."""

    def test_duplicate_adds_count_once(self):
        graph = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        graph.add_edge(2, 1)
        graph.add_edges([(1, 2), (2, 3), (3, 2)])
        assert graph.num_edges == _counted_edges(graph) == 2

    def test_removals_keep_the_count(self):
        graph = kings_graph(4, 4)
        graph.remove_edge((0, 0), (1, 1))
        assert graph.num_edges == _counted_edges(graph) == 41
        with pytest.raises(GraphError):
            graph.remove_edge((0, 0), (1, 1))
        graph.remove_node((1, 1))  # interior: seven edges left after the removal
        assert graph.num_edges == _counted_edges(graph) == 34
        graph.add_edge((0, 0), (1, 0))  # already present
        assert graph.num_edges == 34

    def test_derived_graphs_count_their_own_edges(self):
        graph = kings_graph(3, 3)
        sub = graph.subgraph([(0, 0), (0, 1), (1, 0), (2, 2)])
        assert sub.num_edges == _counted_edges(sub) == 3
        clone = graph.copy()
        clone.remove_node((1, 1))
        assert clone.num_edges == _counted_edges(clone) == 12
        assert graph.num_edges == _counted_edges(graph) == 20
        reduced = graph.without_edges([((0, 0), (0, 1))])
        assert reduced.num_edges == _counted_edges(reduced) == 19

    def test_random_mutations_match_the_adjacency(self):
        rng = np.random.default_rng(3)
        graph = Graph(nodes=range(12))
        for _ in range(400):
            u, v = (int(x) for x in rng.integers(0, 12, size=2))
            if u == v:
                continue
            action = rng.integers(0, 3)
            if action == 0:
                graph.add_edge(u, v)
            elif action == 1 and graph.has_edge(u, v):
                graph.remove_edge(u, v)
            elif action == 2 and graph.has_node(u) and rng.random() < 0.1:
                graph.remove_node(u)
                graph.add_node(u)
            assert graph.num_edges == _counted_edges(graph)


class TestQueries:
    def test_neighbors_and_degree(self):
        graph = Graph(edges=[(1, 2), (1, 3), (1, 4)])
        assert graph.neighbors(1) == {2, 3, 4}
        assert graph.degree(1) == 3
        assert graph.degree(2) == 1

    def test_neighbors_missing_node(self):
        with pytest.raises(GraphError):
            Graph().neighbors(1)

    def test_degrees_mapping(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert graph.degrees() == {1: 1, 2: 2, 3: 1}

    def test_edges_each_once(self):
        graph = kings_graph(3, 3)
        edges = graph.edges()
        assert len(edges) == graph.num_edges
        assert len({frozenset(edge) for edge in edges}) == len(edges)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        graph = Graph(edges=[(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert graph.num_nodes == 2
        assert clone.num_nodes == 3

    def test_subgraph(self):
        graph = kings_graph(3, 3)
        sub = graph.subgraph([(0, 0), (0, 1), (2, 2)])
        assert sub.num_nodes == 3
        assert sub.has_edge((0, 0), (0, 1))
        assert not sub.has_edge((0, 1), (2, 2))

    def test_subgraph_missing_node_raises(self):
        with pytest.raises(GraphError):
            kings_graph(2, 2).subgraph([(5, 5)])

    def test_without_edges(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        reduced = graph.without_edges([(1, 2)])
        assert not reduced.has_edge(1, 2)
        assert reduced.has_edge(2, 3)
        assert graph.has_edge(1, 2)  # original untouched

    def test_without_missing_edge_raises(self):
        with pytest.raises(GraphError):
            Graph(edges=[(1, 2)]).without_edges([(1, 3)])


class TestMatrices:
    def test_adjacency_matrix_symmetric(self):
        graph = kings_graph(3, 3)
        matrix = graph.adjacency_matrix()
        assert matrix.shape == (9, 9)
        assert np.allclose(matrix, matrix.T)
        assert matrix.sum() == 2 * graph.num_edges

    def test_sparse_matches_dense(self):
        graph = kings_graph(4, 4)
        assert np.allclose(graph.sparse_adjacency().toarray(), graph.adjacency_matrix())

    def test_edge_index_array(self):
        graph = Graph(edges=[(10, 20), (20, 30)])
        edges = graph.edge_index_array()
        assert edges.shape == (2, 2)
        assert edges.dtype == np.int64

    def test_edge_index_array_empty(self):
        assert Graph(nodes=[1, 2]).edge_index_array().shape == (0, 2)


class TestNetworkxInterop:
    def test_round_trip(self):
        graph = kings_graph(3, 4)
        back = Graph.from_networkx(graph.to_networkx())
        assert back.num_nodes == graph.num_nodes
        assert back.num_edges == graph.num_edges

    def test_self_loops_dropped_on_import(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge(1, 1)
        nx_graph.add_edge(1, 2)
        graph = Graph.from_networkx(nx_graph)
        assert graph.num_edges == 1


class TestConnectivity:
    def test_connected_components(self):
        graph = Graph(edges=[(1, 2), (3, 4)])
        components = graph.connected_components()
        assert len(components) == 2
        assert {1, 2} in components and {3, 4} in components

    def test_is_connected(self):
        assert kings_graph(3, 3).is_connected()
        assert not Graph(edges=[(1, 2), (3, 4)]).is_connected()
