"""Property test: every route into the one stage body gives the same bits.

The per-seed sequential reference (``MSROPM.run_iteration``, R=1 per seed),
``MSROPM.solve`` (one ``(R, N)`` batch), concatenated replica-range chunks,
and the ROIM baseline's batched
``solve`` against its per-seed ``run_iteration`` must agree bit for bit on
colorings (or cuts) and final phases, for any small graph, iteration count and
chunking.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.roim_maxcut import ROIMMaxCut
from repro.baselines.single_stage_ropm import SingleStageROPM
from repro.core import MSROPM, MSROPMConfig
from repro.core.config import TimingPlan
from repro.graphs import kings_graph
from repro.graphs.generators import erdos_renyi_graph
from repro.rng import iteration_seeds
from repro.units import ns

CONFIG = MSROPMConfig(
    num_colors=4,
    timing=TimingPlan(initialization=ns(0.5), annealing=ns(3.0), shil_settling=ns(1.5)),
    time_step=0.1e-9,
    seed=11,
)

GRAPHS = st.one_of(
    st.builds(lambda rows, cols: kings_graph(rows, cols), st.integers(2, 4), st.integers(2, 4)),
    st.builds(
        lambda num, probability, seed: erdos_renyi_graph(num, probability, seed=seed),
        st.integers(3, 12),
        st.sampled_from([0.2, 0.4, 0.7]),
        st.integers(0, 2**16),
    ),
)


@st.composite
def solves(draw):
    """A graph, an iteration count, a base seed and a split into replica chunks."""
    graph = draw(GRAPHS)
    iterations = draw(st.integers(1, 6))
    cuts = draw(st.sets(st.integers(1, iterations - 1), max_size=3)) if iterations > 1 else set()
    bounds = [0, *sorted(cuts), iterations]
    return graph, iterations, draw(st.integers(0, 2**20)), list(zip(bounds, bounds[1:]))


def fingerprint(graph, iterations):
    return [
        (
            item.iteration_index,
            item.seed,
            [item.coloring.assignment[node] for node in graph.nodes],
            item.stage_results[-1].final_phases.tobytes(),
        )
        for item in iterations
    ]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solves())
def test_engines_and_chunks_are_bit_identical(case):
    graph, iterations, seed, chunks = case
    machine = MSROPM(graph, CONFIG)
    batched = machine.solve(iterations=iterations, seed=seed).iterations
    sequential = [
        machine.run_iteration(iteration_index=index, seed=item)
        for index, item in enumerate(iteration_seeds(seed, iterations))
    ]
    chunked = [
        item
        for start, stop in chunks
        for item in machine.solve_range(iterations, start, stop, seed=seed)
    ]
    expected = fingerprint(graph, batched)
    assert fingerprint(graph, sequential) == expected
    assert fingerprint(graph, chunked) == expected


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(GRAPHS, st.integers(1, 6), st.integers(0, 2**20))
def test_roim_batch_matches_per_seed_runs(graph, iterations, seed):
    roim = ROIMMaxCut(graph, CONFIG)
    batch = roim.solve(iterations=iterations, seed=seed)
    single = [roim.run_iteration(seed=item) for item in iteration_seeds(seed, iterations)]
    for batched_item, single_item in zip(batch, single):
        assert batched_item.partition == single_item.partition
        assert batched_item.cut_value == single_item.cut_value
        assert np.float64(batched_item.accuracy) == np.float64(single_item.accuracy)
    assert len(batch) == len(single) == iterations


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(GRAPHS, st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**20))
def test_single_stage_batch_matches_per_seed_runs(graph, num_colors, iterations, seed):
    machine = SingleStageROPM(graph, num_colors=num_colors, config=CONFIG)
    batch = machine.solve(iterations=iterations, seed=seed).iterations
    single = [
        machine.run_iteration(iteration_index=index, seed=item)
        for index, item in enumerate(iteration_seeds(seed, iterations))
    ]
    assert len(batch) == len(single) == iterations
    for batched_item, single_item in zip(batch, single):
        assert batched_item.iteration_index == single_item.iteration_index
        assert batched_item.seed == single_item.seed
        assert batched_item.coloring.assignment == single_item.coloring.assignment
        assert np.float64(batched_item.accuracy) == np.float64(single_item.accuracy)
