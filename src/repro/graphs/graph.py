"""Lightweight undirected graph data structure used throughout the library.

The MSROPM maps combinatorial problems onto a fabric of coupled ring
oscillators; the problems themselves (graph coloring, max-cut) live on simple
undirected graphs.  This module provides a small, dependency-free ``Graph``
class with the operations the rest of the library needs: adjacency queries,
induced subgraphs, edge filtering, and conversion to/from ``networkx`` and to
sparse adjacency/coupling matrices.

Nodes are arbitrary hashable objects.  Internally each graph also maintains a
stable node *index* (insertion order) so that dense/sparse matrix views and
oscillator arrays line up deterministically.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import GraphError

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """A simple undirected graph (no self-loops, no parallel edges).

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints not already present
        are added automatically.
    name:
        Optional human-readable name used in reports and benchmarks.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
        name: str = "",
    ) -> None:
        self._adjacency: Dict[Node, Set[Node]] = {}
        self._order: List[Node] = []
        self.name = name
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (no-op if already present)."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._order.append(node)

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``(u, v)``.

        Self-loops are rejected because neither the Ising nor the Potts
        Hamiltonian of the paper has on-site terms.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``(u, v)``; raise :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        for neighbor in list(self._adjacency[node]):
            self._adjacency[neighbor].discard(node)
        del self._adjacency[node]
        self._order.remove(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """Nodes in deterministic insertion order."""
        return list(self._order)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._order)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neigh) for neigh in self._adjacency.values()) // 2

    def edges(self) -> List[Edge]:
        """Return every edge exactly once, ordered by node index."""
        index = self.node_index()
        result: List[Edge] = []
        for position, u in enumerate(self._order):
            for v in self._adjacency[u]:
                if position < index[v]:
                    result.append((u, v))
        return result

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, node: Node) -> Set[Node]:
        """Return the set of neighbors of ``node``."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        return set(self._adjacency[node])

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        return len(self._adjacency[node])

    def degrees(self) -> Dict[Node, int]:
        """Return a mapping from node to degree."""
        return {node: len(neigh) for node, neigh in self._adjacency.items()}

    def node_index(self) -> Dict[Node, int]:
        """Return the deterministic node → array-index mapping."""
        return {node: i for i, node in enumerate(self._order)}

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} nodes={self.num_nodes} edges={self.num_edges}>"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph(nodes=self._order, edges=self.edges(), name=self.name if name is None else name)
        return clone

    def subgraph(self, nodes: Iterable[Node], name: str = "") -> "Graph":
        """Return the subgraph induced by ``nodes``.

        The induced subgraph keeps the relative ordering of the parent graph so
        the oscillator indexing stays stable across stages.
        """
        keep = set(nodes)
        missing = keep - set(self._adjacency)
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, missing))}")
        ordered = [node for node in self._order if node in keep]
        sub = Graph(nodes=ordered, name=name or self.name)
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    def without_edges(self, edges: Iterable[Edge], name: str = "") -> "Graph":
        """Return a copy of the graph with the given edges removed.

        Edges are matched in either orientation; asking to remove an edge that
        does not exist raises :class:`GraphError` (it usually indicates a bug
        in partition bookkeeping).
        """
        clone = self.copy(name=name or self.name)
        for u, v in edges:
            if clone.has_edge(u, v):
                clone.remove_edge(u, v)
            else:
                raise GraphError(f"cannot remove missing edge ({u!r}, {v!r})")
        return clone

    # ------------------------------------------------------------------
    # Matrix / interop views
    # ------------------------------------------------------------------
    def adjacency_matrix(self, dtype=float) -> np.ndarray:
        """Return the dense adjacency matrix in node-index order."""
        index = self.node_index()
        matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=dtype)
        for u, v in self.edges():
            i, j = index[u], index[v]
            matrix[i, j] = 1
            matrix[j, i] = 1
        return matrix

    def sparse_adjacency(self, dtype=float) -> sparse.csr_matrix:
        """Return the adjacency matrix as a CSR sparse matrix."""
        index = self.node_index()
        rows: List[int] = []
        cols: List[int] = []
        for u, v in self.edges():
            i, j = index[u], index[v]
            rows.extend((i, j))
            cols.extend((j, i))
        data = np.ones(len(rows), dtype=dtype)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))

    def edge_index_array(self) -> np.ndarray:
        """Return an ``(E, 2)`` integer array of edges in node-index space,
        in :meth:`edges` order."""
        index = self.node_index()
        if self.num_edges == 0:
            return np.zeros((0, 2), dtype=np.int64)
        return np.array([(index[u], index[v]) for u, v in self.edges()], dtype=np.int64)

    def to_networkx(self):
        """Return an equivalent :class:`networkx.Graph`."""
        import networkx as nx

        nx_graph = nx.Graph(name=self.name)
        nx_graph.add_nodes_from(self._order)
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, name: str = "") -> "Graph":
        """Build a :class:`Graph` from a :class:`networkx.Graph`."""
        graph = cls(name=name or str(nx_graph.name or ""))
        for node in nx_graph.nodes():
            graph.add_node(node)
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(u, v)
        return graph

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], name: str = "") -> "Graph":
        """Build a graph directly from an edge list."""
        return cls(edges=edges, name=name)

    # ------------------------------------------------------------------
    # Structure queries used by the partitioning logic
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[Node]]:
        """Return the connected components as a list of node sets."""
        seen: Set[Node] = set()
        components: List[Set[Node]] = []
        for start in self._order:
            if start in seen:
                continue
            component: Set[Node] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(self._adjacency[node] - component)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the graph is connected (empty graphs count as connected)."""
        if self.num_nodes == 0:
            return True
        return len(self.connected_components()) == 1
