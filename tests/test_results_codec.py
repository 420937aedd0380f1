"""Tests for the compact (format v5) solve-result codec and the store path.

* a property test: ``solve_result_to_dict``/``solve_result_from_dict`` round
  trips any result exactly — int, string and nested-tuple node labels, up to
  8 colors, iterations without stage records, isolated nodes;
* malformed v5 payloads raise :class:`AnalysisError` and read as stale cache
  misses, and so does an entry in the previous (v4) layout;
* the runner stores the payload the worker produced: a cold ``run_jobs`` (and
  a drained ticket) calls ``SolveJob.encode`` zero times;
* results are validated before they are memoized or stored.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.results_io import (
    FORMAT_VERSION,
    SCHEMA,
    solve_result_from_dict,
    solve_result_to_dict,
)
from repro.core.results import IterationResult, SolveResult, StageResult
from repro.exceptions import AnalysisError, ReproError
from repro.graphs.coloring import Coloring
from repro.graphs.graph import Graph
from repro.graphs.partition import Bipartition
from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache, integrity_hash
from repro.runtime.jobs import KingsGraphSpec, SolveJob, build_machine
from repro.runtime.runner import TICKET_FAILED, ExperimentRunner


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
def _label(kind: str, index: int):
    if kind == "int":
        return index
    if kind == "str":
        return f"v{index}"
    return (index, ("row", (index % 3, f"c{index}")))


@st.composite
def solve_results(draw):
    kinds = draw(st.lists(st.sampled_from(["int", "str", "tuple"]), min_size=1, max_size=12))
    nodes = [_label(kind, index) for index, kind in enumerate(kinds)]
    pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    graph = Graph(nodes=nodes, edges=[(nodes[i], nodes[j]) for i, j in chosen], name="g")
    num_colors = draw(st.integers(1, 8))
    floats = st.floats(0.0, 2.0, allow_nan=False)
    iterations = []
    for index in range(draw(st.integers(1, 4))):
        colors = draw(st.lists(st.integers(0, num_colors - 1), min_size=len(nodes), max_size=len(nodes)))
        stages = []
        for stage_index in range(draw(st.integers(0, 2))):
            side_b = draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
            stages.append(
                StageResult(
                    stage_index=stage_index + 1,
                    partition=Bipartition.from_sets(
                        [node for node, bit in zip(nodes, side_b) if not bit],
                        [node for node, bit in zip(nodes, side_b) if bit],
                    ),
                    cut_value=draw(st.integers(0, 50)),
                    reference_cut=draw(st.integers(0, 50)),
                    accuracy=draw(floats),
                    raw_accuracy=draw(floats),
                )
            )
        iterations.append(
            IterationResult(
                iteration_index=index,
                seed=draw(st.integers(-1, 2**31)),
                coloring=Coloring.from_array(graph, colors, num_colors),
                accuracy=draw(floats),
                stage_results=stages,
                run_time=draw(floats),
            )
        )
    return SolveResult(
        graph=graph, num_colors=num_colors, iterations=iterations, metadata={"tier": "exact"}
    )


def _assert_same(original: SolveResult, rebuilt: SolveResult) -> None:
    assert rebuilt.graph.nodes == original.graph.nodes
    assert set(map(frozenset, rebuilt.graph.edges())) == set(map(frozenset, original.graph.edges()))
    assert rebuilt.num_colors == original.num_colors
    assert rebuilt.metadata == original.metadata
    assert len(rebuilt.iterations) == len(original.iterations)
    for expected, actual in zip(original.iterations, rebuilt.iterations):
        assert actual.iteration_index == expected.iteration_index
        assert actual.seed == expected.seed
        assert actual.coloring == expected.coloring
        assert actual.accuracy == expected.accuracy
        assert actual.run_time == expected.run_time
        assert len(actual.stage_results) == len(expected.stage_results)
        for want, got in zip(expected.stage_results, actual.stage_results):
            assert got.partition == want.partition
            assert (got.stage_index, got.cut_value, got.reference_cut) == (
                want.stage_index,
                want.cut_value,
                want.reference_cut,
            )
            assert (got.accuracy, got.raw) == (want.accuracy, want.raw)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solve_results())
def test_round_trip_is_exact(result):
    payload = json.loads(json.dumps(solve_result_to_dict(result)))
    rebuilt = solve_result_from_dict(payload)
    _assert_same(result, rebuilt)
    # Reusing the caller's graph gives the same result, and re-encoding either
    # reproduces the payload byte for byte.
    reused = solve_result_from_dict(payload, result.graph)
    assert reused.graph is result.graph
    _assert_same(result, reused)
    assert solve_result_to_dict(rebuilt) == payload
    assert solve_result_to_dict(reused) == payload


def test_payload_layout_is_compact():
    graph = Graph(nodes=[(0, 0), (0, 1), (1, 0)], edges=[((0, 0), (0, 1)), ((0, 1), (1, 0))])
    result = SolveResult(
        graph=graph,
        num_colors=4,
        iterations=[
            IterationResult(
                iteration_index=0,
                seed=3,
                coloring=Coloring.from_array(graph, [3, 1, 0], 4),
                accuracy=1.0,
                stage_results=[
                    StageResult(
                        stage_index=1,
                        partition=Bipartition.from_sets([(0, 0), (1, 0)], [(0, 1)]),
                        cut_value=2,
                        reference_cut=2,
                        accuracy=1.0,
                    )
                ],
            )
        ],
    )
    payload = solve_result_to_dict(result)
    assert payload["format_version"] == FORMAT_VERSION == 5
    assert payload["graph"]["nodes"] == [{"__tuple__": [0, 0]}, {"__tuple__": [0, 1]}, {"__tuple__": [1, 0]}]
    edges = np.frombuffer(base64.b64decode(payload["graph"]["edges"]), dtype="<i4")
    assert edges.tolist() == [0, 1, 1, 2]
    item = payload["iterations"][0]
    assert base64.b64decode(item["colors"]) == bytes([3, 1, 0])
    assert base64.b64decode(item["stages"][0]["side_b"]) == bytes([0b01000000])


# ----------------------------------------------------------------------
# Malformed payloads: AnalysisError, and stale misses in the cache
# ----------------------------------------------------------------------
def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _bad_base64(payload):
    payload["iterations"][0]["colors"] = "@@not base64@@"


def _wrong_length_bitmap(payload):
    stage = payload["iterations"][0]["stages"][0]
    stage["side_b"] = _b64(base64.b64decode(stage["side_b"]) + b"\x00")


def _color_out_of_range(payload):
    nodes = len(payload["graph"]["nodes"])
    payload["iterations"][0]["colors"] = _b64(bytes([payload["num_colors"]]) * nodes)


def _missing_node(payload):
    payload["graph"]["nodes"].pop()


def _missing_edge(payload):
    edges = base64.b64decode(payload["graph"]["edges"])
    payload["graph"]["edges"] = _b64(edges[:-8])


MALFORMATIONS = {
    "bad-base64": _bad_base64,
    "bitmap-length": _wrong_length_bitmap,
    "color-out-of-range": _color_out_of_range,
    "node-count": _missing_node,
    "edge-count": _missing_edge,
}


def _job(config, seed=5):
    return SolveJob(spec=KingsGraphSpec(3, 3), config=config, seed=seed, total_iterations=2)


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_payload_raises_analysis_error(fast_config, name):
    job = _job(fast_config)
    graph, _ = build_machine(job.spec, job.config)
    payload = job.execute()
    MALFORMATIONS[name](payload)
    with pytest.raises(AnalysisError):
        solve_result_from_dict(payload, graph)
    if name not in ("node-count", "edge-count"):
        # Without the job's graph the payload's own graph is rebuilt; the
        # count malformations are only visible against the job's graph.
        with pytest.raises(AnalysisError):
            solve_result_from_dict(payload)


def _write_entry(cache: ResultCache, job: SolveJob, payload) -> None:
    """Install ``payload`` under ``job``'s key with a valid envelope."""
    path = cache.path_for(job.job_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    envelope = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "job_hash": job.job_hash,
        "job": job.describe(),
    }
    envelope["result"] = payload
    envelope["integrity"] = integrity_hash(payload)
    path.write_text(json.dumps(envelope), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_entry_reads_as_stale_miss(fast_config, tmp_path, name):
    job = _job(fast_config)
    build_machine(job.spec, job.config)  # the decode checks against the job's graph
    cache = ResultCache(tmp_path)
    payload = job.execute()
    cache.store(job, payload)
    assert cache.load(job) is not None
    MALFORMATIONS[name](payload)
    _write_entry(cache, job, payload)
    assert cache.load(job) is None
    assert cache.stale_misses == 1


def test_v4_entry_reads_as_stale_miss(fast_config, tmp_path):
    """An entry in the previous layout (lists, not arrays) is never decoded."""
    job = _job(fast_config)
    result = job.run()
    nodes = result.graph.nodes
    v4 = {
        "schema": SCHEMA,
        "format_version": 4,
        "num_colors": result.num_colors,
        "graph": {
            "name": result.graph.name,
            "nodes": [list(node) for node in nodes],
            "edges": [[list(u), list(v)] for u, v in result.graph.edges()],
        },
        "metadata": dict(result.metadata),
        "iterations": [
            {
                "iteration_index": item.iteration_index,
                "seed": item.seed,
                "accuracy": item.accuracy,
                "run_time": item.run_time,
                "colors": [item.coloring.color_of(node) for node in nodes],
                "stages": [
                    {
                        "stage_index": stage.stage_index,
                        "cut_value": stage.cut_value,
                        "reference_cut": stage.reference_cut,
                        "accuracy": stage.accuracy,
                        "raw_accuracy": stage.raw,
                        "side_b_indices": [
                            index for index, node in enumerate(nodes) if node in stage.partition.side_b
                        ],
                    }
                    for stage in item.stage_results
                ],
            }
            for item in result.iterations
        ],
    }
    cache = ResultCache(tmp_path)
    _write_entry(cache, job, v4)
    assert cache.load(job) is None
    assert cache.stale_misses == 1
    with pytest.raises(AnalysisError, match="format version 4"):
        solve_result_from_dict(v4)


# ----------------------------------------------------------------------
# Encode once
# ----------------------------------------------------------------------
@pytest.fixture()
def count_encodes(monkeypatch):
    calls = []
    original = SolveJob.encode

    def counting(self, result):
        calls.append(self)
        return original(self, result)

    monkeypatch.setattr(SolveJob, "encode", counting)
    return calls


def test_cold_run_jobs_never_encodes(fast_config, tmp_path, count_encodes):
    job = _job(fast_config)
    cold = ExperimentRunner(workers=1, cache_dir=tmp_path).run_jobs([job])[0]
    assert count_encodes == []
    assert ResultCache(tmp_path).path_for(job.job_hash).exists()
    warm_runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
    warm = warm_runner.run_jobs([_job(fast_config)])[0]
    assert warm_runner.stats()["jobs_run"] == 0
    assert len(warm.iterations) == len(cold.iterations)
    for expected, actual in zip(cold.iterations, warm.iterations):
        assert actual.coloring == expected.coloring
        assert [stage.partition for stage in actual.stage_results] == [
            stage.partition for stage in expected.stage_results
        ]
    assert count_encodes == []


def test_drained_ticket_never_encodes(fast_config, tmp_path, count_encodes):
    job = _job(fast_config)
    with ExperimentRunner(workers=1, cache_dir=tmp_path) as runner:
        ticket = runner.submit(job)
        assert runner.wait([ticket], timeout=60.0)
    assert ticket.result is not None
    assert count_encodes == []
    assert ResultCache(tmp_path).path_for(job.job_hash).exists()


# ----------------------------------------------------------------------
# Validation before storing
# ----------------------------------------------------------------------
class _ShortJob(SolveJob):
    """A solve whose payload drops its last replica (the wrong replica count)."""

    def execute(self):
        payload = super().execute()
        payload["iterations"] = payload["iterations"][:-1]
        return payload


def test_run_jobs_rejects_an_invalid_result(fast_config, tmp_path):
    job = _ShortJob(spec=KingsGraphSpec(3, 3), config=fast_config, seed=5, total_iterations=2)
    runner = ExperimentRunner(workers=1, cache_dir=tmp_path)
    with pytest.raises(ReproError, match=job.job_hash):
        runner.run_jobs([job])
    assert not runner.cache.path_for(job.job_hash).exists()
    assert runner.stats()["cache_stores"] == 0
    assert runner.stats()["memo_entries"] == 0


def test_drain_fails_the_ticket_of_an_invalid_result(fast_config, tmp_path):
    bad = _ShortJob(spec=KingsGraphSpec(3, 3), config=fast_config, seed=5, total_iterations=2)
    good = _job(fast_config, seed=6)
    with ExperimentRunner(workers=1, cache_dir=tmp_path) as runner:
        tickets = runner.submit_jobs([bad, good])
        assert runner.wait(tickets, timeout=60.0)
        assert tickets[0].state == TICKET_FAILED
        assert bad.job_hash in tickets[0].error
        assert tickets[1].result is not None
        assert not runner.cache.path_for(bad.job_hash).exists()
        assert runner.cache.path_for(good.job_hash).exists()
        assert runner.stats()["cache_stores"] == 1
