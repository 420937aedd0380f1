"""Tests for the parallel experiment runtime: jobs, cache, scheduler, runner.

The load-bearing property is determinism: the same seeds must produce
bit-identical colorings, accuracies and cache hashes whether jobs run in one
process, across a worker pool, in replica chunks, or from a warm cache.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.analysis.sweep import coupling_strength_sweep
from repro.core.machine import MSROPM
from repro.graphs.generators import kings_graph
from repro.graphs.io import write_dimacs
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import (
    DimacsGraphSpec,
    ExplicitGraphSpec,
    KingsGraphSpec,
    SolveJob,
    as_graph_spec,
    merge_job_results,
)
from repro.runtime.runner import ExperimentRunner, SolveRequest
from repro.runtime.scheduler import JobScheduler


def _assert_identical(a, b):
    """Two solve results agree bit-for-bit on everything the paper reports."""
    assert np.array_equal(a.accuracies, b.accuracies)
    assert np.array_equal(a.stage1_accuracies, b.stage1_accuracies)
    assert [i.seed for i in a.iterations] == [i.seed for i in b.iterations]
    assert [i.iteration_index for i in a.iterations] == [i.iteration_index for i in b.iterations]
    assert [i.coloring.assignment for i in a.iterations] == [
        i.coloring.assignment for i in b.iterations
    ]


class TestGraphSpecs:
    def test_kings_spec_builds_the_generator_graph(self):
        spec = KingsGraphSpec(4, 5)
        graph = spec.build()
        reference = kings_graph(4, 5)
        assert graph.nodes == reference.nodes
        assert sorted(graph.edges()) == sorted(reference.edges())
        assert spec.fingerprint() == {"kind": "kings", "rows": 4, "cols": 5}

    def test_dimacs_spec_is_content_addressed(self, tmp_path):
        path = tmp_path / "instance.col"
        write_dimacs(kings_graph(4, 4), path)
        spec = DimacsGraphSpec(str(path))
        first = spec.fingerprint()
        assert spec.build().num_nodes == 16
        # Same content elsewhere -> same fingerprint (location-independent).
        moved = tmp_path / "copy.col"
        moved.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        assert DimacsGraphSpec(str(moved)).fingerprint() == first
        # Edited content -> different fingerprint (cache invalidates).
        write_dimacs(kings_graph(5, 5), path)
        assert DimacsGraphSpec(str(path)).fingerprint() != first

    def test_explicit_spec_hash_is_cached_and_content_based(self, kings_5x5):
        spec = ExplicitGraphSpec(kings_5x5)
        assert spec.fingerprint() == spec.fingerprint()
        same = ExplicitGraphSpec(kings_graph(5, 5))
        assert same.fingerprint() == spec.fingerprint()
        other = ExplicitGraphSpec(kings_graph(4, 4))
        assert other.fingerprint() != spec.fingerprint()

    def test_as_graph_spec_dispatch(self, kings_5x5, tmp_path):
        assert isinstance(as_graph_spec(kings_5x5), ExplicitGraphSpec)
        assert isinstance(as_graph_spec(KingsGraphSpec(3, 3)), KingsGraphSpec)
        assert isinstance(as_graph_spec(str(tmp_path / "x.col")), DimacsGraphSpec)
        with pytest.raises(ConfigurationError):
            as_graph_spec(42)

    def test_as_graph_spec_loads_json_paths_as_graphs(self, tmp_path):
        from repro.graphs.io import write_json

        path = tmp_path / "board.json"
        write_json(kings_graph(4, 4), path)
        spec = as_graph_spec(str(path))
        assert isinstance(spec, ExplicitGraphSpec)
        assert spec.build().num_nodes == 16

    def test_dimacs_spec_snapshot_survives_file_edits(self, tmp_path):
        """One spec must hash and build the same content even if the file
        changes between scheduling and execution (no cache poisoning)."""
        path = tmp_path / "instance.col"
        write_dimacs(kings_graph(4, 4), path)
        spec = DimacsGraphSpec(str(path))
        before = spec.fingerprint()
        write_dimacs(kings_graph(6, 6), path)
        assert spec.fingerprint() == before
        assert spec.build().num_nodes == 16


class TestSolveJob:
    def test_hash_is_stable_and_sensitive(self, fast_config):
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=4)
        twin = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=4)
        assert job.job_hash == twin.job_hash
        assert (
            SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=2, total_iterations=4).job_hash
            != job.job_hash
        )
        assert (
            SolveJob(spec=KingsGraphSpec(5, 4), config=fast_config, seed=1, total_iterations=4).job_hash
            != job.job_hash
        )
        assert (
            SolveJob(
                spec=KingsGraphSpec(4, 4),
                config=fast_config.with_updates(coupling_strength=0.2),
                seed=1,
                total_iterations=4,
            ).job_hash
            != job.job_hash
        )
        assert (
            SolveJob(
                spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=4, replica_stop=2
            ).job_hash
            != job.job_hash
        )

    def test_invalid_ranges_rejected(self, fast_config):
        with pytest.raises(ConfigurationError):
            SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=0)
        with pytest.raises(ConfigurationError):
            SolveJob(
                spec=KingsGraphSpec(4, 4),
                config=fast_config,
                seed=1,
                total_iterations=4,
                replica_start=3,
                replica_stop=3,
            )
        with pytest.raises(ConfigurationError):
            SolveJob(
                spec=KingsGraphSpec(4, 4),
                config=fast_config,
                seed=1,
                total_iterations=4,
                replica_stop=5,
            )

    def test_seedless_jobs_are_uncacheable(self, fast_config):
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=None, total_iterations=2)
        assert not job.cacheable
        with pytest.raises(ConfigurationError):
            _ = job.job_hash

    def test_split_tiles_the_range_independent_of_workers(self, fast_config):
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=10)
        chunks = job.split(3)
        assert [(c.replica_start, c.stop) for c in chunks] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert job.split(None) == [job]
        assert job.split(10) == [job]
        with pytest.raises(ConfigurationError):
            job.split(0)

    def test_chunked_results_merge_bit_identical_to_full_solve(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        reference = machine.solve(iterations=5, seed=33)
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=33, total_iterations=5)
        chunks = job.split(2)
        merged = merge_job_results(chunks, [chunk.run() for chunk in chunks])
        _assert_identical(reference, merged)

    def test_solve_range_matches_slice_of_full_solve(self, fast_config):
        machine = MSROPM(kings_graph(4, 4), fast_config)
        reference = machine.solve(iterations=6, seed=9)
        window = machine.solve_range(total_iterations=6, start=2, stop=5, seed=9)
        assert [item.iteration_index for item in window] == [2, 3, 4]
        for ref_item, got in zip(reference.iterations[2:5], window):
            assert ref_item.seed == got.seed
            assert ref_item.accuracy == got.accuracy
            assert ref_item.coloring.assignment == got.coloring.assignment
        with pytest.raises(ConfigurationError):
            machine.solve_range(total_iterations=6, start=4, stop=3, seed=9)


class TestResultCache:
    def _job(self, fast_config, seed=5):
        return SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=seed, total_iterations=2)

    def test_store_and_load_round_trip(self, fast_config, tmp_path):
        cache = ResultCache(tmp_path)
        job = self._job(fast_config)
        result = job.run()
        assert cache.load(job) is None  # cold
        cache.store(job, job.encode(result))
        loaded = cache.load(job)
        assert loaded is not None
        _assert_identical(result, loaded)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_corrupt_and_mismatched_entries_read_as_misses(self, fast_config, tmp_path):
        cache = ResultCache(tmp_path)
        job = self._job(fast_config)
        cache.store(job, job.encode(job.run()))
        path = cache.path_for(job.job_hash)

        from repro.runtime.cache import CACHE_SCHEMA_VERSION

        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["cache_schema"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(job) is None

        payload["cache_schema"] = CACHE_SCHEMA_VERSION
        payload["result"]["format_version"] = 1  # stale results schema
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(job) is None

        path.write_text("{not json", encoding="utf-8")
        assert cache.load(job) is None

    def test_uncacheable_jobs_bypass_the_cache(self, fast_config, tmp_path):
        cache = ResultCache(tmp_path)
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=None, total_iterations=2)
        cache.store(job, job.encode(job.run()))
        assert not any(tmp_path.iterdir())
        assert cache.load(job) is None


class TestSchedulerAndRunner:
    def test_parallel_matches_serial_bit_for_bit(self, fast_config):
        """The acceptance property: --workers N == --workers 1, per seed."""
        requests = [
            SolveRequest(spec=KingsGraphSpec(4, 4), config=fast_config, iterations=4, seed=7),
            SolveRequest(spec=KingsGraphSpec(5, 4), config=fast_config, iterations=3, seed=8),
            SolveRequest(spec=KingsGraphSpec(4, 5), config=fast_config, iterations=2, seed=9),
        ]
        serial = ExperimentRunner(workers=1).solve_many(requests)
        parallel = ExperimentRunner(workers=4).solve_many(requests)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)

    def test_parallel_chunked_matches_unchunked(self, fast_config):
        request = SolveRequest(spec=KingsGraphSpec(4, 4), config=fast_config, iterations=6, seed=21)
        unchunked = ExperimentRunner(workers=1).solve_many([request])[0]
        chunked = ExperimentRunner(workers=4, replica_chunk=2).solve_many([request])[0]
        _assert_identical(unchunked, chunked)

    def test_job_hashes_are_worker_independent(self, fast_config):
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=7, total_iterations=4)
        assert [c.job_hash for c in job.split(2)] == [c.job_hash for c in job.split(2)]

    def test_runner_deduplicates_identical_jobs(self, fast_config):
        request = SolveRequest(spec=KingsGraphSpec(4, 4), config=fast_config, iterations=2, seed=3)
        runner = ExperimentRunner()
        first, second = runner.solve_many([request, request])
        assert runner.jobs_run == 1
        _assert_identical(first, second)
        # A later batch reuses the in-process memo, too.
        third = runner.solve_many([request])[0]
        assert runner.jobs_run == 1
        _assert_identical(first, third)

    def test_warm_cache_skips_all_solves_and_matches(self, fast_config, tmp_path):
        request = SolveRequest(spec=KingsGraphSpec(4, 4), config=fast_config, iterations=3, seed=11)
        cold = ExperimentRunner(cache_dir=tmp_path)
        first = cold.solve_many([request])[0]
        assert cold.stats()["jobs_run"] == 1 and cold.stats()["cache_stores"] == 1
        warm = ExperimentRunner(cache_dir=tmp_path)
        second = warm.solve_many([request])[0]
        assert warm.stats()["jobs_run"] == 0 and warm.stats()["cache_hits"] == 1
        _assert_identical(first, second)

    def test_seedless_requests_run_but_never_cache(self, fast_config, tmp_path):
        request = SolveRequest(spec=KingsGraphSpec(4, 4), config=fast_config, iterations=2, seed=None)
        runner = ExperimentRunner(cache_dir=tmp_path)
        result = runner.solve_many([request])[0]
        assert result.num_iterations == 2
        assert runner.stats()["cache_stores"] == 0

    def test_scheduler_rejects_bad_worker_counts(self):
        with pytest.raises(ConfigurationError):
            JobScheduler(workers=0)

    def test_scheduler_empty_batch(self):
        assert JobScheduler(workers=2).run([]) == []

    def test_chunked_map_preserves_submission_order(self, fast_config):
        """Many small jobs are shipped in chunks (chunksize > 1); results must
        still come back in submission order, matching each job's problem."""
        base_shapes = [(4, 4), (4, 5), (5, 4), (5, 5), (4, 6), (6, 4)]
        shapes = [base_shapes[index % len(base_shapes)] for index in range(17)]
        jobs = [
            SolveJob(
                spec=KingsGraphSpec(rows, cols),
                config=fast_config,
                seed=100 + index,
                total_iterations=1,
            )
            for index, (rows, cols) in enumerate(shapes)
        ]
        # With 2 workers and 17 jobs the derived chunksize is 17 // 8 = 2, so
        # this exercises the chunked path, not one-job-at-a-time dispatch.
        assert len(jobs) // (2 * 4) > 1
        results = JobScheduler(workers=2).run(jobs)
        serial = JobScheduler(workers=1).run(jobs)
        for (rows, cols), job, result, reference in zip(shapes, jobs, results, serial):
            assert result.graph.num_nodes == rows * cols
            assert [i.seed for i in result.iterations] == [i.seed for i in reference.iterations]
            assert np.array_equal(result.accuracies, reference.accuracies)


class TestSweepThroughRuntime:
    def test_parallel_sweep_matches_serial(self, fast_config, small_grid):
        strengths = (0.05, 0.1, 0.2)
        serial = coupling_strength_sweep(
            small_grid, strengths, base_config=fast_config, iterations=2, seed=4
        )
        parallel = coupling_strength_sweep(
            small_grid,
            strengths,
            base_config=fast_config,
            iterations=2,
            seed=4,
            runner=ExperimentRunner(workers=3),
        )
        assert [p.overrides for p in serial.points] == [p.overrides for p in parallel.points]
        for a, b in zip(serial.points, parallel.points):
            assert a.statistics == b.statistics
            assert a.mean_stage1_accuracy == b.mean_stage1_accuracy

    def test_invalid_grid_points_still_skipped(self, fast_config, small_grid):
        sweep = coupling_strength_sweep(
            small_grid, (0.1, 99.0), base_config=fast_config, iterations=1, seed=4
        )
        assert len(sweep.points) == 1

    def test_empty_value_sequence_yields_empty_sweep(self, fast_config, small_grid):
        sweep = coupling_strength_sweep(
            small_grid, (), base_config=fast_config, iterations=1, seed=4
        )
        assert sweep.points == []
