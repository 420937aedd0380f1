"""Tests of the throughput precision tier.

Covered here:

* configuration and engine validation of ``MSROPMConfig.precision``,
* the :class:`~repro.rng.ThroughputRNG` batched-stream RNG (shapes, dtype,
  moment matching, determinism),
* the throughput solve path itself: it runs, is deterministic per seed,
  records its provenance metadata, and leaves the exact tier bit-identical,
* tier segregation in the runtime: exact and throughput jobs hash
  differently, never share cache entries, and a campaign re-planned under a
  different tier schedules disjoint jobs,
* the stale-miss counter the tier switch surfaces through runner stats,
* the statistical-equivalence harness at smoke scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, StageError
from repro.core.config import MSROPMConfig
from repro.core.engine import BatchedEngine, SequentialEngine
from repro.core.machine import MSROPM
from repro.core.stages import StageExecutor
from repro.dynamics.batched import BatchedOscillatorModel, ThroughputOptions, ThroughputOscillatorModel
from repro.rng import ThroughputRNG, normal_noise_block
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import KingsGraphSpec, SolveJob
from repro.runtime.runner import ExperimentRunner, SolveRequest


# ----------------------------------------------------------------------
# Configuration and engine validation
# ----------------------------------------------------------------------
class TestPrecisionConfig:
    def test_default_is_exact(self):
        assert MSROPMConfig(num_colors=4).precision == "exact"

    def test_invalid_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            MSROPMConfig(num_colors=4, precision="fast")

    def test_sequential_engine_rejects_throughput(self, kings_5x5):
        config = MSROPMConfig(num_colors=4, seed=3, precision="throughput")
        machine = MSROPM(kings_5x5, config)
        with pytest.raises(ConfigurationError):
            machine.solve(iterations=2, engine=SequentialEngine())

    def test_throughput_rejects_dense_pin(self, kings_5x5):
        config = MSROPMConfig(
            num_colors=4, seed=3, precision="throughput", coupling_backend="dense"
        )
        machine = MSROPM(kings_5x5, config)
        with pytest.raises(ConfigurationError):
            machine.solve(iterations=2)

    def test_throughput_rejects_trajectory_recording(self, kings_5x5):
        config = MSROPMConfig(num_colors=4, seed=3)
        executor = StageExecutor(
            config=config,
            edge_index=kings_5x5.edge_index_array(),
            num_oscillators=kings_5x5.num_nodes,
            collect_trajectory=True,
            precision="throughput",
        )
        phases = np.zeros((2, kings_5x5.num_nodes))
        with pytest.raises(StageError):
            executor.run_stage(1, phases, np.zeros(phases.shape, dtype=int), ThroughputRNG([1, 2]))


# ----------------------------------------------------------------------
# ThroughputRNG
# ----------------------------------------------------------------------
class TestThroughputRNG:
    def test_shapes_and_dtype(self):
        rng = ThroughputRNG([1, 2, 3])
        assert rng.num_replicas == 3
        assert rng.standard_normal(5).shape == (3, 5)
        assert rng.standard_normal(5).dtype == np.float32
        assert rng.uniform(0.0, 2.0, size=(3, 4)).shape == (3, 4)

    def test_deterministic_per_seed_list(self):
        a = ThroughputRNG([7, 8]).standard_normal(16)
        b = ThroughputRNG([7, 8]).standard_normal(16)
        assert np.array_equal(a, b)
        c = ThroughputRNG([7, 9]).standard_normal(16)
        assert not np.array_equal(a, c)

    def test_noise_block_moments_and_dtype(self):
        rng = ThroughputRNG([5])
        block = normal_noise_block(rng, 4000, (1, 50))
        assert block.shape == (4000, 1, 50)
        assert block.dtype == np.float32
        # Moment-matched uniform increments: mean 0, unit variance.
        assert abs(float(block.mean())) < 0.01
        assert abs(float(block.var()) - 1.0) < 0.01
        # Bounded support is the tell of the uniform relaxation.
        assert float(np.abs(block).max()) <= np.sqrt(3.0) + 1e-6

    def test_uniform_range(self):
        sample = ThroughputRNG([2]).uniform(1.0, 3.0, size=1000)
        assert float(sample.min()) >= 1.0
        assert float(sample.max()) <= 3.0


# ----------------------------------------------------------------------
# The fused-SHIL model relaxation
# ----------------------------------------------------------------------
class TestThroughputModel:
    def _models(self, fused: bool):
        from repro.dynamics.batched import FastSharedCoupling

        rng = np.random.default_rng(0)
        num = 12
        matrix = np.triu(rng.random((num, num)) < 0.3, k=1)
        adjacency = (matrix | matrix.T).astype(float) * -2.0e9
        offsets = rng.uniform(0.0, np.pi, size=num)
        kwargs = dict(
            num_oscillators=num,
            shil_strength=1.5e9,
            shil_offset=offsets,
            shil_order=2,
        )
        exact = BatchedOscillatorModel(coupling=FastSharedCoupling(adjacency), **kwargs)
        fast = ThroughputOscillatorModel(
            coupling=FastSharedCoupling(adjacency), fused_shil=fused, dtype=np.float64, **kwargs
        )
        return exact, fast

    @pytest.mark.parametrize("fused", [False, True])
    def test_matches_reference_model(self, fused):
        exact, fast = self._models(fused)
        phases = np.random.default_rng(1).uniform(0.0, 2 * np.pi, size=(4, 12))
        expected = exact.evaluate_into(0.0, phases, np.empty_like(phases))
        actual = fast.evaluate_into(0.0, phases, np.empty_like(phases))
        # In float64 the fused double-angle identity is algebraically exact up
        # to rounding; the non-fused path delegates to the parent verbatim.
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1.0)

    def test_float32_state(self):
        from repro.dynamics.batched import FastSharedCoupling

        model = ThroughputOscillatorModel(
            coupling=FastSharedCoupling(np.zeros((4, 4)), dtype=np.float32),
            num_oscillators=4,
            shil_strength=1.0e9,
            shil_offset=np.zeros(4),
            shil_order=2,
            dtype=np.float32,
        )
        phases = np.zeros((2, 4), dtype=np.float32)
        out = model.evaluate_into(0.0, phases, np.empty_like(phases))
        assert out.dtype == np.float32


# ----------------------------------------------------------------------
# The throughput solve path
# ----------------------------------------------------------------------
class TestThroughputSolve:
    def test_runs_and_records_metadata(self, kings_5x5):
        config = MSROPMConfig(num_colors=4, seed=5, precision="throughput")
        result = MSROPM(kings_5x5, config).solve(iterations=4)
        assert result.num_iterations == 4
        assert result.metadata["precision"] == "throughput"
        assert result.metadata["dtype"] == "float32"
        assert result.metadata["numpy"] == np.__version__
        assert all(0.0 <= item.accuracy <= 1.0 for item in result.iterations)

    def test_deterministic_per_seed(self, kings_5x5):
        config = MSROPMConfig(num_colors=4, seed=5, precision="throughput")
        first = MSROPM(kings_5x5, config).solve(iterations=4)
        second = MSROPM(kings_5x5, config).solve(iterations=4)
        assert np.array_equal(first.accuracies, second.accuracies)
        for a, b in zip(first.iterations, second.iterations):
            assert all(
                a.coloring.color_of(node) == b.coloring.color_of(node)
                for node in kings_5x5.nodes
            )

    def test_exact_tier_metadata_and_bit_identity(self, kings_5x5):
        config = MSROPMConfig(num_colors=4, seed=5)
        result = MSROPM(kings_5x5, config).solve(iterations=3)
        assert result.metadata["precision"] == "exact"
        assert result.metadata["dtype"] == "float64"
        # The exact tier must be unaffected by the tier machinery: the batched
        # and sequential engines stay bit-identical.
        sequential = MSROPM(kings_5x5, config).solve(iterations=3, engine=SequentialEngine())
        assert np.array_equal(result.accuracies, sequential.accuracies)
        for batched_item, sequential_item in zip(result.iterations, sequential.iterations):
            assert np.array_equal(
                batched_item.stage_results[-1].final_phases,
                sequential_item.stage_results[-1].final_phases,
            )

    def test_relaxations_individually_switchable(self, kings_5x5):
        for options in (
            ThroughputOptions(batched_rng=False),
            ThroughputOptions(float32_state=False),
            ThroughputOptions(fused_shil=True),
        ):
            config = MSROPMConfig(num_colors=4, seed=5, precision="throughput")
            engine = BatchedEngine(precision="throughput", throughput_options=options)
            result = MSROPM(kings_5x5, config).solve(iterations=2, engine=engine)
            assert result.num_iterations == 2

    def test_accuracy_comparable_to_exact(self, kings_7x7):
        exact = MSROPM(kings_7x7, MSROPMConfig(num_colors=4, seed=9)).solve(iterations=10)
        throughput = MSROPM(
            kings_7x7, MSROPMConfig(num_colors=4, seed=9, precision="throughput")
        ).solve(iterations=10)
        assert abs(float(exact.accuracies.mean() - throughput.accuracies.mean())) < 0.05


# ----------------------------------------------------------------------
# Tier segregation in the runtime
# ----------------------------------------------------------------------
class TestTierSegregation:
    def _job(self, precision: str, **overrides) -> SolveJob:
        config = MSROPMConfig(num_colors=4, seed=1, precision=precision, **overrides)
        return SolveJob(
            spec=KingsGraphSpec(5, 5), config=config, seed=11, total_iterations=3
        )

    def test_distinct_content_hashes(self):
        assert self._job("exact").job_hash != self._job("throughput").job_hash

    def test_tiers_never_share_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        exact_job = self._job("exact")
        result = exact_job.run()
        cache.store(exact_job, exact_job.encode(result))
        assert cache.load(exact_job) is not None
        # The throughput job addresses a different entry entirely.
        assert cache.load(self._job("throughput")) is None
        assert cache.stale_misses == 0  # absent entry, not a stale one

    def test_runner_recomputes_across_tiers(self, tmp_path):
        spec = KingsGraphSpec(5, 5)
        with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
            for precision in ("exact", "throughput"):
                config = MSROPMConfig(num_colors=4, seed=1, precision=precision)
                runner.solve_many(
                    [SolveRequest(spec=spec, config=config, iterations=2, seed=3)]
                )
            stats = runner.stats()
        assert stats["jobs_run"] == 2
        assert stats["cache_hits"] == 0

    def test_campaign_replan_after_tier_change_schedules_new_jobs(self, tmp_path):
        from repro.campaigns import get_campaign
        from repro.campaigns.spec import CampaignContext

        spec = get_campaign("suite")
        stage = next(s for s in spec.stages if s.name == "table1")

        def plan(precision):
            with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
                context = CampaignContext(
                    params={
                        "scale": 0.1,
                        "seed": 2025,
                        "engine": None,
                        "precision": precision,
                    },
                    runner=runner,
                )
                return {job.job_hash for job in stage.plan(context)}

        exact_hashes = plan("exact")
        throughput_hashes = plan("throughput")
        assert exact_hashes
        assert exact_hashes.isdisjoint(throughput_hashes)


# ----------------------------------------------------------------------
# Stale-miss accounting
# ----------------------------------------------------------------------
class TestStaleMisses:
    def test_absent_entry_is_a_plain_miss(self, tmp_path, fast_config):
        cache = ResultCache(tmp_path)
        job = SolveJob(
            spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=1
        )
        assert cache.load(job) is None
        assert cache.misses == 1
        assert cache.stale_misses == 0

    def test_corrupt_entry_is_a_stale_miss(self, tmp_path, fast_config):
        cache = ResultCache(tmp_path)
        job = SolveJob(
            spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=1
        )
        path = cache.path_for(job.job_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.load(job) is None
        assert cache.misses == 1
        assert cache.stale_misses == 1

    def test_schema_mismatch_is_a_stale_miss(self, tmp_path, fast_config):
        import json

        cache = ResultCache(tmp_path)
        job = SolveJob(
            spec=KingsGraphSpec(4, 4), config=fast_config, seed=1, total_iterations=1
        )
        result = job.run()
        cache.store(job, job.encode(result))
        path = cache.path_for(job.job_hash)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["cache_schema"] = -1
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert cache.load(job) is None
        assert cache.stale_misses == 1

    def test_runner_stats_surface_the_counter(self, tmp_path):
        with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
            stats = runner.stats()
        assert stats["cache_stale_misses"] == 0
        assert ExperimentRunner(cache_dir=None).stats()["cache_stale_misses"] == 0


# ----------------------------------------------------------------------
# The equivalence harness, smoke scale
# ----------------------------------------------------------------------
class TestEquivalenceHarness:
    def test_bootstrap_ci_is_deterministic(self):
        from repro.experiments.equivalence import bootstrap_mean_difference_ci

        a = np.linspace(0.9, 1.0, 20)
        b = np.linspace(0.89, 1.0, 20)
        first = bootstrap_mean_difference_ci(a, b, num_samples=200, seed=4)
        second = bootstrap_mean_difference_ci(a, b, num_samples=200, seed=4)
        assert first == second
        assert first[0] <= first[1]

    def test_smoke_two_families(self, tmp_path):
        from repro.experiments.equivalence import run_equivalence

        with ExperimentRunner(cache_dir=tmp_path / "cache") as runner:
            result = run_equivalence(iterations=6, seed=2025, runner=runner)
        assert len(result.rows) == 2
        assert {row.family for row in result.rows} == {"er", "regular"}
        assert result.passed
        rendered = result.render()
        assert "PASS" in rendered

    def test_detects_a_shifted_distribution(self):
        from repro.experiments.equivalence import (
            EquivalenceResult,
            EquivalenceRow,
            bootstrap_mean_difference_ci,
        )
        from scipy import stats

        rng = np.random.default_rng(0)
        exact = rng.normal(0.95, 0.01, size=200)
        shifted = exact - 0.2
        ks = stats.ks_2samp(exact, shifted)
        ci_low, ci_high = bootstrap_mean_difference_ci(shifted, exact, seed=1)
        row = EquivalenceRow(
            family="synthetic",
            num_instances=1,
            sample_size=200,
            exact_mean=float(exact.mean()),
            throughput_mean=float(shifted.mean()),
            mean_diff=float(shifted.mean() - exact.mean()),
            ci_low=ci_low,
            ci_high=ci_high,
            ks_statistic=float(ks.statistic),
            ks_pvalue=float(ks.pvalue),
            ks_ok=bool(ks.pvalue >= 0.01),
            ci_ok=bool(-0.05 <= ci_low and ci_high <= 0.05),
        )
        assert not row.equivalent
        result = EquivalenceResult(rows=[row])
        assert not result.passed
        assert "FAIL" in result.render()


# ----------------------------------------------------------------------
# Serialization of the metadata (results FORMAT_VERSION 4 onward)
# ----------------------------------------------------------------------
class TestMetadataRoundTrip:
    def test_round_trip_preserves_metadata(self, kings_5x5):
        from repro.analysis.results_io import (
            FORMAT_VERSION,
            solve_result_from_dict,
            solve_result_to_dict,
        )

        config = MSROPMConfig(num_colors=4, seed=2, precision="throughput")
        result = MSROPM(kings_5x5, config).solve(iterations=2)
        payload = solve_result_to_dict(result)
        # Metadata arrived with format 4 and every later layout keeps it.
        assert payload["format_version"] == FORMAT_VERSION >= 4
        restored = solve_result_from_dict(payload)
        assert restored.metadata == result.metadata

    def test_chunk_merge_keeps_metadata(self, tmp_path):
        with ExperimentRunner(cache_dir=None, replica_chunk=2) as runner:
            config = MSROPMConfig(num_colors=4, seed=2, precision="throughput")
            result = runner.solve(KingsGraphSpec(5, 5), config, iterations=4, seed=6)
        assert result.metadata["precision"] == "throughput"
        assert result.num_iterations == 4
