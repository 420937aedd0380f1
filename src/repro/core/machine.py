"""The multi-stage ring-oscillator Potts machine (MSROPM) — the paper's contribution.

:class:`MSROPM` ties together the problem mapping, the control schedule and
the phase dynamics into the solver the paper evaluates:

* the problem graph is mapped one node per oscillator and one edge per B2B
  coupling;
* a run executes ``log2(K)`` binary stages; each stage self-anneals the
  coupled oscillators and then binarizes their phases with the appropriate
  phase-shifted SHIL, refining the coloring by one bit (divide-and-color);
* read-out happens on the K-phase reference grid, exactly one DFF per
  oscillator capturing a one, and the decoded coloring is scored against the
  paper's accuracy metric;
* repeated iterations with fresh random initial phases explore the solution
  space; the best iteration is the reported solution.

Typical use::

    from repro import kings_graph, MSROPM, MSROPMConfig

    machine = MSROPM(kings_graph(7, 7), MSROPMConfig(num_colors=4, seed=7))
    result = machine.solve(iterations=40)
    print(result.best_accuracy)
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, MappingError
from repro.circuit.power import PowerModel
from repro.core.config import MSROPMConfig
from repro.core.engine import BatchedEngine, run_batch
from repro.core.mapping import ProblemMapping, identity_mapping
from repro.core.results import IterationResult, SolveResult, StageResult
from repro.core.stages import StageExecutor
from repro.graphs.graph import Graph
from repro.graphs.properties import is_kings_graph_shape
from repro.ising.maxcut import kings_graph_reference_cut
from repro.rng import ReplicaRNG, iteration_seeds, make_rng


class MSROPM:
    """Multi-Stage Ring-Oscillator Potts Machine solver for K-coloring.

    Parameters
    ----------
    graph:
        The problem graph (one oscillator per node).
    config:
        Machine configuration; defaults to the paper's 4-coloring operating point.
    mapping:
        Optional explicit problem → fabric mapping; defaults to a fabric built
        exactly for the problem (the paper's custom implementations).
    stage1_reference_cut:
        Normalization for the stage-1 max-cut accuracy.  Defaults to the cut
        induced by the canonical 4-coloring for King's graphs and to the total
        edge count otherwise.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[MSROPMConfig] = None,
        mapping: Optional[ProblemMapping] = None,
        stage1_reference_cut: Optional[int] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise MappingError("cannot build an MSROPM for an empty graph")
        self.graph = graph
        self.config = config or MSROPMConfig()
        self.mapping = mapping or identity_mapping(graph)
        if self.mapping.problem_graph is not graph:
            # Re-validate against the provided graph to catch mismatched mappings.
            if set(self.mapping.problem_graph.nodes) != set(graph.nodes):
                raise MappingError("mapping was built for a different problem graph")
        self._edge_index = graph.edge_index_array()
        self._nodes = graph.nodes
        self._stage1_reference_cut = (
            stage1_reference_cut
            if stage1_reference_cut is not None
            else self._default_stage1_reference()
        )
        # Static per-oscillator frequency mismatch (process variation): drawn
        # once per machine instance, like silicon, and reused by every
        # iteration.  config.frequency_detuning_std is the *relative* fraction
        # of the oscillator frequency; the dynamics need rad/s, so the draw
        # uses its converted form frequency_detuning_rate_std
        # (= frequency_detuning_std * 2*pi*f).
        if self.config.frequency_detuning_std > 0:
            mismatch_rng = make_rng(self.config.seed)
            self._frequency_detuning = mismatch_rng.normal(
                0.0, self.config.frequency_detuning_rate_std, size=graph.num_nodes
            )
        else:
            self._frequency_detuning = None

    # ------------------------------------------------------------------
    def _default_stage1_reference(self) -> int:
        if is_kings_graph_shape(self.graph):
            rows = 1 + max(node[0] for node in self.graph.nodes)
            cols = 1 + max(node[1] for node in self.graph.nodes)
            return kings_graph_reference_cut(rows, cols)
        return max(1, self.graph.num_edges)

    @property
    def num_oscillators(self) -> int:
        """Number of oscillators (problem nodes)."""
        return self.graph.num_nodes

    @property
    def stage1_reference_cut(self) -> int:
        """The cut value used to normalize stage-1 accuracy."""
        return self._stage1_reference_cut

    def batched_executor(
        self, precision: str = "exact", collect_trajectory: bool = False
    ) -> StageExecutor:
        """The machine's cached :class:`StageExecutor` for one configuration.

        Built once per ``(precision, collect_trajectory)`` key and reused
        across solves, so the executor's precompiled
        :class:`~repro.core.stages.CouplingPlan` (stage-1 CSR, kernel buffers)
        survives from one solve to the next — and, through the runtime's
        per-worker machine memo, from one job to the next.  The executor is
        stateless with respect to a solve's data, so sharing it cannot couple
        solves.  Exact and throughput tiers get distinct executors (their
        plans hold different-dtype operators).
        """
        cache = self.__dict__.setdefault("_executor_cache", {})
        key = (precision, collect_trajectory)
        if key not in cache:
            cache[key] = StageExecutor(
                config=self.config,
                edge_index=self._edge_index,
                num_oscillators=self.num_oscillators,
                collect_trajectory=collect_trajectory,
                frequency_detuning=self._frequency_detuning,
                precision=precision,
            )
        return cache[key]

    # ------------------------------------------------------------------
    def run_iteration(
        self,
        iteration_index: int = 0,
        seed: Optional[int] = None,
        collect_trajectory: bool = False,
    ) -> IterationResult:
        """Run one complete multi-stage solve and return its result.

        This is the batched stage body at R=1 on the exact tier, so a run is
        bit-identical to the same seed's replica in an exact-tier solve.
        With ``collect_trajectory`` every integrator step is recorded and the
        result carries the ``(T, N)`` trajectory.

        It is the per-seed exact reference only: a machine configured with
        ``precision="throughput"`` raises :class:`ConfigurationError` rather
        than compute in the wrong arithmetic; use :meth:`solve` there.
        """
        if self.config.precision != "exact":
            raise ConfigurationError(
                f"run_iteration is the exact-tier reference; this machine is configured "
                f"for precision={self.config.precision!r} (use solve())"
            )
        executor = self.batched_executor(collect_trajectory=collect_trajectory)
        result = run_batch(self, [seed], ReplicaRNG([make_rng(seed)]), executor)[0]
        result.iteration_index = iteration_index
        return result

    def solve(self, iterations: int = 40, seed: Optional[int] = None) -> SolveResult:
        """Run ``iterations`` independent runs (the paper uses 40) and aggregate them.

        All iterations advance together as one vectorized integration
        (:class:`repro.core.engine.BatchedEngine`) on the tier that
        ``config.precision`` names.  On the exact tier every iteration is
        bit-identical to :meth:`run_iteration` with the same seed.
        """
        if iterations < 1:
            raise ConfigurationError(f"iterations must be at least 1, got {iterations}")
        base_seed = seed if seed is not None else self.config.seed
        seeds = iteration_seeds(base_seed, iterations)
        return SolveResult(
            graph=self.graph,
            num_colors=self.config.num_colors,
            iterations=BatchedEngine().run(self, seeds),
            metadata=self.result_metadata(),
        )

    def solve_range(
        self,
        total_iterations: int,
        start: int,
        stop: int,
        seed: Optional[int] = None,
    ) -> List[IterationResult]:
        """Run replicas ``[start, stop)`` of a ``total_iterations``-iteration solve.

        Per-iteration seeds are derived from the *full* solve
        (``iteration_seeds(seed, total_iterations)``) and then sliced, so any
        tiling of ``[0, total_iterations)`` into ranges merges back — in range
        order — to exactly the iteration list :meth:`solve` would produce for
        the same base seed.  This is the replica-chunking entry point of the
        experiment runtime (:mod:`repro.runtime`); the returned results carry
        global iteration indices.
        """
        if total_iterations < 1:
            raise ConfigurationError(
                f"total_iterations must be at least 1, got {total_iterations}"
            )
        if not 0 <= start < stop <= total_iterations:
            raise ConfigurationError(
                f"invalid replica range [{start}, {stop}) for {total_iterations} iterations"
            )
        base_seed = seed if seed is not None else self.config.seed
        seeds = iteration_seeds(base_seed, total_iterations)[start:stop]
        results = BatchedEngine().run(self, seeds)
        for offset, item in enumerate(results):
            item.iteration_index = start + offset
        return results

    # ------------------------------------------------------------------
    def result_metadata(self) -> Dict[str, object]:
        """Provenance recorded on every :class:`SolveResult` this machine makes.

        Captures the active precision tier, the integrated state dtype, and
        the numpy version, so archived results are auditable: a cached
        throughput result can never masquerade as an exact one.
        """
        precision = self.config.precision
        dtype = "float32" if precision == "throughput" else "float64"
        return {"precision": precision, "dtype": dtype, "numpy": np.__version__}

    # ------------------------------------------------------------------
    def _score_stage_batch(
        self, stage_index: int, bits: np.ndarray, group_values: np.ndarray
    ) -> List[StageResult]:
        """Cut values/accuracies of one stage's ``(R, N)`` binary read-outs.

        The per-edge gating and cut masks are evaluated once over the whole
        ``(R, E)`` table; stage 1 is normalized by the machine's stage-1
        reference cut, later stages by each replica's count of conducting
        (same-group) edges.  Each record holds its replica's row of ``bits``
        as its side B (no per-node work here).
        """
        num_replicas = bits.shape[0]
        sides_b = bits.astype(bool)
        edge_index = self._edge_index
        if edge_index.size:
            active = group_values[:, edge_index[:, 0]] == group_values[:, edge_index[:, 1]]
            cut_mask = bits[:, edge_index[:, 0]] != bits[:, edge_index[:, 1]]
            cut_values = np.sum(active & cut_mask, axis=1)
            active_counts = np.sum(active, axis=1)
        else:
            cut_values = np.zeros(num_replicas, dtype=int)
            active_counts = np.zeros(num_replicas, dtype=int)
        nodes = self._nodes
        results: List[StageResult] = []
        for replica in range(num_replicas):
            cut_value = int(cut_values[replica])
            if stage_index == 1:
                reference = self._stage1_reference_cut
            else:
                reference = max(1, int(active_counts[replica]))
            raw = cut_value / reference if reference > 0 else 1.0
            results.append(
                StageResult.from_side_b(
                    stage_index=stage_index,
                    side_b=sides_b[replica],
                    nodes=nodes,
                    cut_value=cut_value,
                    reference_cut=int(reference),
                    accuracy=float(min(1.0, raw)),
                    raw_accuracy=float(raw),
                )
            )
        return results

    def _batch_coloring_accuracies(self, group_values: np.ndarray) -> List[float]:
        """Replica-vectorized coloring accuracies for decoded group values.

        Computes the monochromatic-edge counts for all replicas in one pass;
        each returned float equals ``coloring_accuracy(graph, decoded)`` bit
        for bit (decoded colorings always cover the graph by construction, so
        the cover check is side-effect free to skip).
        """
        num_replicas = group_values.shape[0]
        num_edges = self.graph.num_edges
        edge_index = self._edge_index
        if num_edges == 0 or not edge_index.size:
            return [1.0] * num_replicas
        conflicts = np.sum(
            group_values[:, edge_index[:, 0]] == group_values[:, edge_index[:, 1]], axis=1
        )
        return [1.0 - int(count) / num_edges for count in conflicts]

    # ------------------------------------------------------------------
    def estimated_power(self, power_model: Optional[PowerModel] = None) -> float:
        """Average power (watts) of this instance per the bottom-up power model."""
        model = power_model or PowerModel()
        return model.total_power(self.graph.num_nodes, self.graph.num_edges)

    def time_to_solution(self) -> float:
        """Modeled single-run time in seconds (the paper's 60 ns for 4-coloring)."""
        return self.config.total_run_time


def solve_coloring(
    graph: Graph,
    num_colors: int = 4,
    iterations: int = 40,
    seed: Optional[int] = None,
    config: Optional[MSROPMConfig] = None,
) -> SolveResult:
    """One-call convenience API: build an :class:`MSROPM` and solve ``graph``."""
    if config is None:
        config = MSROPMConfig(num_colors=num_colors, seed=seed)
    elif config.num_colors != num_colors:
        config = config.with_updates(num_colors=num_colors)
    machine = MSROPM(graph, config)
    return machine.solve(iterations=iterations, seed=seed)
