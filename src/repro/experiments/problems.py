"""The paper's benchmark problems and experiment-wide defaults.

The evaluation uses custom 4-coloring problems on King's graph topologies of
49, 400, 1024 and 2116 nodes with every edge active (8 edges per interior
node), 40 iterations per problem.  This module centralizes those definitions
so every experiment and benchmark draws the same workloads; a ``scale``
parameter allows the CI-sized benchmarks to run reduced versions (smaller
boards, fewer iterations) while the full-sized runs remain one flag away.

Problems double as *runtime workloads*: every :class:`BenchmarkProblem`
carries a content-addressable :class:`repro.runtime.jobs.GraphSpec` (its
``spec`` property) that the experiment runtime schedules and caches by, and
:func:`file_workload` registers externally supplied DIMACS ``.col`` (or graph
JSON) instances as the same first-class citizens the King's boards are —
``msropm solve --graph path.col`` routes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.graphs.generators import PAPER_PROBLEM_SIDES, kings_graph
from repro.graphs.graph import Graph
from repro.runtime.jobs import ExplicitGraphSpec, GraphSpec, KingsGraphSpec, as_graph_spec

#: Iterations per problem in the paper's evaluation.
PAPER_ITERATIONS = 40

#: Problem sizes reported in Table 1.
TABLE1_SIZES = (49, 400, 1024, 2116)

#: Problem sizes plotted in Figure 5 (the 2116-node problem appears only in Table 1).
FIGURE5_SIZES = (49, 400, 1024)


@dataclass(frozen=True)
class BenchmarkProblem:
    """One benchmark problem instance: a graph plus its workload metadata.

    ``rows``/``cols`` are the board shape for King's-graph problems and 0 for
    file-loaded workloads.  ``source`` records where a file workload came
    from (empty for generated boards); ``workload_spec`` carries the spec the
    workload was loaded through, so ``graph`` and the graph the runtime
    solves are guaranteed to be the same content.
    """

    num_nodes: int
    rows: int
    cols: int
    graph: Graph
    source: str = ""
    workload_spec: Optional[GraphSpec] = None

    @property
    def name(self) -> str:
        """Human-readable problem name ("49-node", or the instance stem)."""
        if self.source:
            return Path(self.source).stem
        return f"{self.num_nodes}-node"

    @cached_property
    def spec(self) -> GraphSpec:
        """The content-addressable graph spec the runtime schedules this problem by."""
        if self.workload_spec is not None:
            return self.workload_spec
        if self.rows > 0 and self.cols > 0:
            return KingsGraphSpec(self.rows, self.cols)
        return ExplicitGraphSpec(self.graph)


def paper_problem(num_nodes: int) -> BenchmarkProblem:
    """Return one of the paper's benchmark problems by node count."""
    side = PAPER_PROBLEM_SIDES.get(num_nodes)
    if side is None:
        raise ConfigurationError(
            f"num_nodes must be one of {sorted(PAPER_PROBLEM_SIDES)}, got {num_nodes}"
        )
    return BenchmarkProblem(num_nodes=num_nodes, rows=side, cols=side, graph=kings_graph(side, side))


def scaled_side(num_nodes: int, scale: float = 1.0) -> int:
    """Board side of the (optionally scaled) benchmark problem.

    ``scale`` shrinks the side by ``sqrt(scale)`` (minimum 4x4), preserving
    the topology and the relative size ordering of the problems.  Computable
    without building the graph, which is what the job planners use.
    """
    if not 0 < scale <= 1.0:  # also rejects NaN
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    side = PAPER_PROBLEM_SIDES.get(num_nodes)
    if side is None:
        raise ConfigurationError(
            f"num_nodes must be one of {sorted(PAPER_PROBLEM_SIDES)}, got {num_nodes}"
        )
    if scale == 1.0:
        return side
    return max(4, int(round(side * scale ** 0.5)))


def scaled_spec(num_nodes: int, scale: float = 1.0) -> KingsGraphSpec:
    """The runtime graph spec of the scaled benchmark problem (no graph built).

    Equal to ``scaled_problem(num_nodes, scale).spec`` but without
    materializing the King's graph — experiment planners schedule by spec and
    leave graph construction to the workers.
    """
    side = scaled_side(num_nodes, scale)
    return KingsGraphSpec(side, side)


def scaled_problem(num_nodes: int, scale: float = 1.0) -> BenchmarkProblem:
    """Return the benchmark problem, optionally scaled down for quick runs.

    ``scale`` shrinks the board side by ``sqrt(scale)`` (minimum 4x4) so a
    scaled experiment preserves the topology and the relative size ordering of
    the problems while running much faster.  ``scale=1.0`` returns the paper's
    exact instance.
    """
    side = scaled_side(num_nodes, scale)
    return BenchmarkProblem(
        num_nodes=side * side, rows=side, cols=side, graph=kings_graph(side, side)
    )


def file_workload(path: Union[str, Path]) -> BenchmarkProblem:
    """Register an externally supplied graph file as a first-class workload.

    Accepts DIMACS ``.col``/``.dimacs`` instances (the coloring community's
    interchange format) and the library's graph JSON — the same dispatch as
    :func:`repro.graphs.io.read_graph`.  The file is parsed through the
    runtime spec itself (one read), so the returned problem's ``graph`` and
    the content the runtime hashes, schedules and caches by are guaranteed
    identical — and editing the file invalidates its cache entries
    automatically.
    """
    path = Path(path)
    spec = as_graph_spec(path)
    graph = spec.build()
    if graph.num_nodes == 0:
        raise ConfigurationError(f"workload {path} contains an empty graph")
    return BenchmarkProblem(
        num_nodes=graph.num_nodes,
        rows=0,
        cols=0,
        graph=graph,
        source=str(path),
        workload_spec=spec,
    )


def default_config(
    seed: Optional[int] = 2025,
    precision: Optional[str] = None,
) -> MSROPMConfig:
    """The configuration used by all paper-reproduction experiments.

    ``precision`` selects the precision tier (``"exact"`` or
    ``"throughput"``); ``None`` keeps the library default (exact).
    """
    config = MSROPMConfig(num_colors=4, seed=seed)
    if precision is not None:
        config = config.with_updates(precision=precision)
    return config


def scaled_iterations(scale: float = 1.0) -> int:
    """Iteration count scaled the same way as the problems (minimum 5)."""
    if not 0 < scale <= 1.0:  # also rejects NaN
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    return max(5, int(round(PAPER_ITERATIONS * scale)))
