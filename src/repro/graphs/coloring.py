"""Graph coloring data structures, validity checks and classical heuristics.

A *coloring* maps every node of a graph to an integer color ``0 .. K-1``.  The
MSROPM produces colorings by reading out oscillator phases; the classical
heuristics here (greedy, Welsh-Powell, DSATUR) are used as baselines, as
reference colorings for King's graphs, and to provide quick upper bounds on
the chromatic number in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ColoringError
from repro.graphs.graph import Graph, Node
from repro.rng import SeedLike, make_rng


def _checked_colors(nodes: Sequence[Node], colors: List, num_colors: int) -> List[int]:
    """Validate ``colors`` (aligned with ``nodes``) and return them as Python ints.

    The type and range checks run as whole-list builtins (``set(map(type,
    ...))``, ``min``, ``max``), so a large coloring is validated without
    per-node Python; the per-node scans run only to name an offending node.
    A list that already holds only plain ``int`` colors is returned as is;
    numpy integers and bools are converted.
    """
    if num_colors <= 0:
        raise ColoringError(f"num_colors must be positive, got {num_colors}")
    if not set(map(type, colors)) <= {int}:
        for node, color in zip(nodes, colors):
            if not isinstance(color, (int, np.integer)):
                raise ColoringError(f"color of node {node!r} must be an integer, got {color!r}")
        colors = [int(color) for color in colors]
    if colors and (min(colors) < 0 or max(colors) >= num_colors):
        first = next(i for i, color in enumerate(colors) if not 0 <= color < num_colors)
        raise ColoringError(
            f"color {colors[first]} of node {nodes[first]!r} outside [0, {num_colors})"
        )
    return colors


@dataclass
class Coloring:
    """An assignment of integer colors to graph nodes.

    Attributes
    ----------
    assignment:
        Mapping from node to color (non-negative integer).
    num_colors:
        The number of colors the assignment is allowed to use (``K`` in
        K-coloring).  Colors must lie in ``[0, num_colors)``.
    """

    assignment: Dict[Node, int]
    num_colors: int

    def __post_init__(self) -> None:
        nodes = list(self.assignment)
        colors = list(self.assignment.values())
        checked = _checked_colors(nodes, colors, self.num_colors)
        # A copy whose colors are plain Python ints (numpy integers and bools
        # normalized) for stable hashing/serialization.
        self.assignment = dict(self.assignment) if checked is colors else dict(zip(nodes, checked))

    # ------------------------------------------------------------------
    def color_of(self, node: Node) -> int:
        """Return the color assigned to ``node``."""
        try:
            return self.assignment[node]
        except KeyError as exc:
            raise ColoringError(f"node {node!r} has no assigned color") from exc

    def covers(self, graph: Graph) -> bool:
        """Return ``True`` if every node of ``graph`` has a color."""
        return all(node in self.assignment for node in graph.nodes)

    def used_colors(self) -> Set[int]:
        """Return the set of colors actually used."""
        return set(self.assignment.values())

    def color_classes(self) -> Dict[int, Set[Node]]:
        """Return the partition of nodes into color classes."""
        classes: Dict[int, Set[Node]] = {}
        for node, color in self.assignment.items():
            classes.setdefault(color, set()).add(node)
        return classes

    def as_array(self, graph: Graph) -> np.ndarray:
        """Return the coloring as an integer array in the graph's node order."""
        try:
            return np.fromiter(
                map(self.assignment.__getitem__, graph.nodes), dtype=np.int64, count=graph.num_nodes
            )
        except KeyError:
            raise ColoringError("coloring does not cover every node of the graph") from None

    @classmethod
    def from_array(cls, graph: Graph, colors: Sequence[int], num_colors: int) -> "Coloring":
        """Build a coloring from an array aligned with ``graph.nodes``."""
        array = np.asarray(colors)
        if array.ndim != 1 or array.shape[0] != graph.num_nodes:
            raise ColoringError(f"expected {graph.num_nodes} colors, got {np.size(array)}")
        return cls(assignment=dict(zip(graph.nodes, array.tolist())), num_colors=num_colors)

    # ------------------------------------------------------------------
    def conflicting_edges(self, graph: Graph) -> List[Tuple[Node, Node]]:
        """Return the edges whose endpoints share a color (coloring violations)."""
        conflicts = []
        for u, v in graph.edges():
            if self.assignment.get(u) == self.assignment.get(v) and u in self.assignment:
                conflicts.append((u, v))
        return conflicts

    def num_conflicts(self, graph: Graph) -> int:
        """Return the number of monochromatic (violating) edges."""
        return len(self.conflicting_edges(graph))

    def is_proper(self, graph: Graph) -> bool:
        """Return ``True`` if the coloring is proper (no monochromatic edge)."""
        return self.covers(graph) and self.num_conflicts(graph) == 0

    def accuracy(self, graph: Graph) -> float:
        """Return the fraction of edges whose endpoints have different colors.

        This is the paper's accuracy metric for 4-colorable graphs: the
        normalized count of correctly colored neighbours, which equals 1.0 for
        an exact solution.
        """
        num_edges = graph.num_edges
        if num_edges == 0:
            return 1.0
        return 1.0 - self.num_conflicts(graph) / num_edges

    def relabeled(self, permutation: Mapping[int, int]) -> "Coloring":
        """Return a coloring with colors renamed by ``permutation``.

        Proper colorings are invariant under color permutations; metrics like
        the Hamming distance must account for that (see
        :func:`repro.core.metrics.min_hamming_distance`).
        """
        missing = self.used_colors() - set(permutation)
        if missing:
            raise ColoringError(f"permutation missing colors {sorted(missing)}")
        new_assignment = {node: int(permutation[color]) for node, color in self.assignment.items()}
        return Coloring(assignment=new_assignment, num_colors=self.num_colors)


# ----------------------------------------------------------------------
# Classical coloring heuristics
# ----------------------------------------------------------------------
def greedy_coloring(graph: Graph, order: Optional[Sequence[Node]] = None, num_colors: Optional[int] = None) -> Coloring:
    """Greedy (first-fit) coloring following ``order`` (default: insertion order).

    The number of colors in the returned :class:`Coloring` is the maximum of
    the colors used and ``num_colors`` if provided.
    """
    if order is None:
        order = graph.nodes
    assignment: Dict[Node, int] = {}
    for node in order:
        taken = {assignment[neighbor] for neighbor in graph.neighbors(node) if neighbor in assignment}
        color = 0
        while color in taken:
            color += 1
        assignment[node] = color
    highest = max(assignment.values(), default=-1) + 1
    return Coloring(assignment=assignment, num_colors=max(highest, num_colors or 1))


def welsh_powell_coloring(graph: Graph, num_colors: Optional[int] = None) -> Coloring:
    """Welsh-Powell coloring: greedy in order of decreasing degree."""
    order = sorted(graph.nodes, key=lambda node: (-graph.degree(node), str(node)))
    return greedy_coloring(graph, order=order, num_colors=num_colors)


def dsatur_coloring(graph: Graph, num_colors: Optional[int] = None) -> Coloring:
    """DSATUR coloring: always color the node with the highest saturation next.

    DSATUR colors King's graphs, grids and other structured planar graphs
    optimally in practice and serves as a strong classical baseline.
    """
    assignment: Dict[Node, int] = {}
    saturation: Dict[Node, Set[int]] = {node: set() for node in graph.nodes}
    uncolored = set(graph.nodes)
    while uncolored:
        node = max(
            uncolored,
            key=lambda n: (len(saturation[n]), graph.degree(n), -_stable_rank(graph, n)),
        )
        taken = saturation[node]
        color = 0
        while color in taken:
            color += 1
        assignment[node] = color
        uncolored.discard(node)
        for neighbor in graph.neighbors(node):
            if neighbor in uncolored:
                saturation[neighbor].add(color)
    highest = max(assignment.values(), default=-1) + 1
    return Coloring(assignment=assignment, num_colors=max(highest, num_colors or 1))


def _stable_rank(graph: Graph, node: Node) -> int:
    """Deterministic tie-breaking rank based on node insertion order."""
    return graph.node_index()[node]


def random_coloring(graph: Graph, num_colors: int, seed: SeedLike = None) -> Coloring:
    """Return a uniformly random (generally improper) K-coloring."""
    if num_colors <= 0:
        raise ColoringError(f"num_colors must be positive, got {num_colors}")
    rng = make_rng(seed)
    colors = rng.integers(0, num_colors, size=graph.num_nodes)
    return Coloring.from_array(graph, colors, num_colors)


def kings_graph_reference_coloring(rows: int, cols: int) -> Coloring:
    """Return the canonical proper 4-coloring of a ``rows x cols`` King's graph.

    The pattern assigns color ``2*(r % 2) + (c % 2)`` so every 2x2 block gets
    all four colors — no two king-adjacent cells share a color.  This is the
    exact solution the paper's SAT baseline would find (up to color renaming)
    and is used as ground truth in the accuracy experiments.
    """
    if rows <= 0 or cols <= 0:
        raise ColoringError(f"rows and cols must be positive, got {rows}x{cols}")
    assignment = {(r, c): 2 * (r % 2) + (c % 2) for r in range(rows) for c in range(cols)}
    return Coloring(assignment=assignment, num_colors=4)


def count_proper_edges(graph: Graph, coloring: Coloring) -> int:
    """Return the number of edges with differently colored endpoints."""
    return graph.num_edges - coloring.num_conflicts(graph)
