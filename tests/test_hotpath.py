"""Bit-identity regressions for the hot-path overhaul.

Every fast path introduced by the overhaul is pinned here against a slow
reference:

* the in-place, preallocated-recording integrators against verbatim copies of
  the original allocating loops (including the chunked noise stream),
* the final-state integrator entry points against the recording variants,
* the precompiled coupling operators (direct ``csr_matvec(s)`` kernels,
  vectorized block-diagonal construction) against scipy's own products and
  the per-replica ``block_diag`` construction,
* the batched engine against the sequential engine (the results of the
  deleted legacy engine body are pinned by ``test_golden_digests.py``),
* the no-trajectory guarantee (a default solve materializes no
  :class:`Trajectory` at all),
* the warm scheduler pool, the per-worker machine memo, and the cached
  reference solutions against their cold equivalents.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy import sparse

from repro.core import MSROPM, BatchedEngine, MSROPMConfig, SequentialEngine
from repro.core.config import TimingPlan
from repro.core.stages import CouplingPlan, StageExecutor, partition_coupling_matrix
from repro.dynamics import integrators
from repro.dynamics.batched import (
    BatchedOscillatorModel,
    FastBlockDiagonalCoupling,
    FastSharedCoupling,
    gated_block_diagonal_csr,
)
from repro.dynamics.integrators import (
    Trajectory,
    euler_maruyama_final,
    integrate_euler_maruyama,
    integrate_rk4,
    rk4_final,
)
from repro.dynamics.kuramoto import CoupledOscillatorModel
from repro.graphs import kings_graph
from repro.rng import ReplicaRNG, make_rng, normal_noise_block
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import (
    MACHINE_MEMO_STATS,
    GeneratedGraphSpec,
    KingsGraphSpec,
    SolveJob,
    clear_machine_memo,
)
from repro.runtime.scheduler import WORKER_THREAD_CAPS, JobScheduler, _worker_init
from repro.units import ns
from repro.workloads.registry import cached_reference, expand_workloads, reference_cache_key

NOISE_BLOCK_ELEMENTS = integrators._NOISE_BLOCK_ELEMENTS


def _crash_worker(job):
    """Stand-in worker entry point that kills its process (pool-crash test)."""
    os._exit(1)


# ----------------------------------------------------------------------
# Verbatim pre-overhaul integrator loops (the bit-identity anchors)
# ----------------------------------------------------------------------
def reference_euler_maruyama(
    rhs, initial_phases, duration, dt, noise_amplitude=0.0, seed=None,
    start_time=0.0, record_every=1,
):
    num_steps = int(np.ceil(duration / dt))
    step = duration / num_steps
    rng = make_rng(seed)
    theta = np.array(initial_phases, dtype=float)
    times = [start_time]
    states = [theta.copy()]
    noise_scale = np.sqrt(2.0 * noise_amplitude * step)
    block_steps = min(num_steps, max(1, NOISE_BLOCK_ELEMENTS // max(1, theta.size)))
    noise_block = None
    time = start_time
    for index in range(num_steps):
        drift = rhs(time, theta)
        theta = theta + step * drift
        if noise_scale > 0:
            offset = index % block_steps
            if offset == 0:
                noise_block = normal_noise_block(
                    rng, min(block_steps, num_steps - index), theta.shape
                )
            theta = theta + noise_scale * noise_block[offset]
        time = start_time + (index + 1) * step
        if (index + 1) % record_every == 0 or index == num_steps - 1:
            times.append(time)
            states.append(theta.copy())
    return Trajectory(times=np.array(times), phases=np.array(states))


def reference_rk4(rhs, initial_phases, duration, dt, start_time=0.0, record_every=1):
    num_steps = int(np.ceil(duration / dt))
    step = duration / num_steps
    theta = np.array(initial_phases, dtype=float)
    times = [start_time]
    states = [theta.copy()]
    time = start_time
    for index in range(num_steps):
        k1 = rhs(time, theta)
        k2 = rhs(time + step / 2.0, theta + step * k1 / 2.0)
        k3 = rhs(time + step / 2.0, theta + step * k2 / 2.0)
        k4 = rhs(time + step, theta + step * k3)
        theta = theta + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        time = start_time + (index + 1) * step
        if (index + 1) % record_every == 0 or index == num_steps - 1:
            times.append(time)
            states.append(theta.copy())
    return Trajectory(times=np.array(times), phases=np.array(states))


def hide_protocol(model):
    """Wrap a model so integrators cannot see ``evaluate_into`` (pre-PR view)."""
    return lambda time, phases: model(time, phases)


def batched_model(graph, config, groups=None, shil=False):
    """A representative batched RHS on ``graph`` (stage-1 or gated stage-2)."""
    edge_index = graph.edge_index_array()
    num = graph.num_nodes
    if groups is None:
        coupling = FastSharedCoupling(
            partition_coupling_matrix(edge_index, np.zeros(num, dtype=int), num, config.coupling_rate)
        )
    else:
        coupling = FastBlockDiagonalCoupling.from_group_values(
            edge_index, groups, num, config.coupling_rate
        )
    return BatchedOscillatorModel(
        coupling=coupling,
        num_oscillators=num,
        shil_strength=config.shil_rate if shil else 0.0,
        shil_offset=0.0,
        frequency_detuning=None,
    )


class TestIntegratorBitIdentity:
    def test_euler_maruyama_matches_reference_batched(self, kings_5x5, fast_config):
        replicas = 6
        model = batched_model(kings_5x5, fast_config)
        start = np.linspace(0.0, 2.0, replicas * kings_5x5.num_nodes).reshape(
            replicas, kings_5x5.num_nodes
        )
        seeds = list(range(replicas))
        new = integrate_euler_maruyama(
            model, start, ns(6.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds), record_every=7,
        )
        old = reference_euler_maruyama(
            hide_protocol(model), start, ns(6.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds), record_every=7,
        )
        assert np.array_equal(new.times, old.times)
        assert np.array_equal(new.phases, old.phases)

    def test_euler_maruyama_matches_reference_sequential(self, kings_5x5, fast_config):
        num = kings_5x5.num_nodes
        coupling = partition_coupling_matrix(
            kings_5x5.edge_index_array(), np.zeros(num, dtype=int), num, fast_config.coupling_rate
        )
        model = CoupledOscillatorModel(coupling_matrix=coupling, shil_strength=fast_config.shil_rate)
        start = np.linspace(0.0, 2.0 * np.pi, num)
        new = integrate_euler_maruyama(
            model, start, ns(5.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion, seed=11, record_every=3,
        )
        old = reference_euler_maruyama(
            hide_protocol(model), start, ns(5.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion, seed=11, record_every=3,
        )
        assert np.array_equal(new.times, old.times)
        assert np.array_equal(new.phases, old.phases)

    def test_euler_maruyama_generic_rhs_matches_reference(self):
        rhs = lambda t, y: np.sin(y) - 0.25 * y  # noqa: E731 - no protocol
        start = np.linspace(-2.0, 2.0, 12)
        new = integrate_euler_maruyama(rhs, start, 1e-9, 1e-11, noise_amplitude=1e5, seed=3)
        old = reference_euler_maruyama(rhs, start, 1e-9, 1e-11, noise_amplitude=1e5, seed=3)
        assert np.array_equal(new.phases, old.phases)

    def test_rk4_matches_reference(self, kings_5x5, fast_config):
        replicas = 4
        model = batched_model(kings_5x5, fast_config, shil=True)
        start = np.linspace(0.0, 3.0, replicas * kings_5x5.num_nodes).reshape(
            replicas, kings_5x5.num_nodes
        )
        new = integrate_rk4(model, start, ns(4.0), fast_config.time_step, record_every=5)
        old = reference_rk4(hide_protocol(model), start, ns(4.0), fast_config.time_step, record_every=5)
        assert np.array_equal(new.times, old.times)
        assert np.array_equal(new.phases, old.phases)

    def test_final_state_entry_points_match_trajectories(self, kings_5x5, fast_config):
        replicas = 5
        model = batched_model(kings_5x5, fast_config)
        start = np.linspace(0.0, 1.0, replicas * kings_5x5.num_nodes).reshape(
            replicas, kings_5x5.num_nodes
        )
        seeds = list(range(replicas))
        final = euler_maruyama_final(
            model, start, ns(6.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds),
        )
        recorded = integrate_euler_maruyama(
            model, start, ns(6.0), fast_config.time_step,
            noise_amplitude=fast_config.phase_noise_diffusion,
            seed=ReplicaRNG.from_seeds(seeds),
        )
        assert np.array_equal(final, recorded.final_phases)
        assert np.array_equal(
            rk4_final(model, start, ns(4.0), fast_config.time_step),
            integrate_rk4(model, start, ns(4.0), fast_config.time_step).final_phases,
        )

    def test_recording_thinning_preserved(self):
        rhs = lambda t, y: -y  # noqa: E731
        start = np.ones(3)
        for record_every in (1, 3, 7, 100):
            new = integrate_rk4(rhs, start, 1e-9, 1e-11, record_every=record_every)
            old = reference_rk4(rhs, start, 1e-9, 1e-11, record_every=record_every)
            assert np.array_equal(new.times, old.times)


class TestFastOperators:
    def _random_groups(self, replicas, num, labels=2, seed=0):
        return np.asarray(make_rng(seed).integers(0, labels, size=(replicas, num)))

    def test_fast_shared_matches_reference(self, kings_7x7):
        num = kings_7x7.num_nodes
        matrix = partition_coupling_matrix(
            kings_7x7.edge_index_array(), np.zeros(num, dtype=int), num, 2.0e9
        )
        fast = FastSharedCoupling(matrix)
        rng = make_rng(5)
        for replicas in (1, 4, 9):
            first = rng.uniform(-1.0, 1.0, size=(replicas, num))
            second = rng.uniform(-1.0, 1.0, size=(replicas, num))
            # Reference: scipy's own dispatch of the same CSR product.
            ref_cos, ref_sin = (matrix @ first.T).T, (matrix @ second.T).T
            fast_cos, fast_sin = fast.apply_pair(first, second)
            assert np.array_equal(ref_cos, np.asarray(fast_cos))
            assert np.array_equal(ref_sin, np.asarray(fast_sin))
            assert np.array_equal(ref_cos, fast.apply(first))

    def test_vectorized_block_diagonal_construction(self, kings_7x7):
        edge_index = kings_7x7.edge_index_array()
        num = kings_7x7.num_nodes
        rate = 1.5e9
        groups = self._random_groups(8, num, labels=2, seed=3)
        legacy = sparse.block_diag(
            [partition_coupling_matrix(edge_index, row, num, rate) for row in groups],
            format="csr",
        )
        fast = gated_block_diagonal_csr(edge_index, groups, num, rate)
        assert np.array_equal(legacy.indptr, fast.indptr)
        assert np.array_equal(legacy.indices, fast.indices)
        assert np.array_equal(legacy.data, fast.data)

    def test_fast_block_diagonal_matches_reference(self, kings_5x5):
        edge_index = kings_5x5.edge_index_array()
        num = kings_5x5.num_nodes
        rate = 2.5e9
        groups = self._random_groups(6, num, labels=2, seed=9)
        # Reference: each replica's own gated matrix and scipy matvec.
        blocks = [partition_coupling_matrix(edge_index, row, num, rate) for row in groups]
        fast = FastBlockDiagonalCoupling.from_group_values(edge_index, groups, num, rate)
        rng = make_rng(1)
        first = rng.uniform(-1.0, 1.0, size=(6, num))
        second = rng.uniform(-1.0, 1.0, size=(6, num))
        fast_first, fast_second = (np.array(part) for part in fast.apply_pair(first, second))
        field = rng.uniform(-1.0, 1.0, size=(6, num))
        applied = fast.apply(field)
        for replica, block in enumerate(blocks):
            assert np.array_equal(block @ first[replica], fast_first[replica])
            assert np.array_equal(block @ second[replica], fast_second[replica])
            assert np.array_equal(block @ field[replica], applied[replica])

    def test_plan_reuses_uniform_operator(self, kings_5x5):
        plan = CouplingPlan(kings_5x5.edge_index_array(), kings_5x5.num_nodes, 1e9, "sparse")
        groups = np.zeros((4, kings_5x5.num_nodes), dtype=int)
        first = plan.operator(groups)
        second = plan.operator(np.ones((7, kings_5x5.num_nodes), dtype=int))
        assert first is second  # one ungated CSR serves every uniform gating

    def test_model_evaluate_into_matches_call(self, kings_5x5, fast_config):
        model = batched_model(kings_5x5, fast_config, shil=True)
        phases = make_rng(2).uniform(0, 2 * np.pi, size=(5, kings_5x5.num_nodes))
        out = np.empty_like(phases)
        result = model.evaluate_into(0.0, phases, out)
        assert result is out
        assert np.array_equal(out, model(0.0, phases))


class TestFastEngine:
    def test_fast_engine_matches_legacy_and_sequential(self, kings_5x5, fast_config):
        machine = MSROPM(kings_5x5, fast_config)
        fast = machine.solve(iterations=6, seed=21)
        sequential = machine.solve(iterations=6, seed=21, engine=SequentialEngine())
        assert np.array_equal(fast.accuracies, sequential.accuracies)
        for fast_item, ref_item in zip(fast.iterations, sequential.iterations):
            assert fast_item.coloring.assignment == ref_item.coloring.assignment
            assert len(fast_item.stage_results) == len(ref_item.stage_results)
            for fast_stage, ref_stage in zip(fast_item.stage_results, ref_item.stage_results):
                assert fast_stage.cut_value == ref_stage.cut_value
                assert fast_stage.reference_cut == ref_stage.reference_cut
                assert fast_stage.accuracy == ref_stage.accuracy
                assert fast_stage.partition.side_a == ref_stage.partition.side_a
            assert np.array_equal(
                fast_item.stage_results[-1].final_phases,
                ref_item.stage_results[-1].final_phases,
            )

    def test_fast_engine_matches_legacy_with_detuning(self, kings_5x5, fast_config):
        config = fast_config.with_updates(frequency_detuning_std=0.01, seed=5)
        machine = MSROPM(kings_5x5, config)
        fast = machine.solve(iterations=4, seed=8)
        sequential = machine.solve(iterations=4, seed=8, engine=SequentialEngine())
        assert np.array_equal(fast.accuracies, sequential.accuracies)
        assert np.array_equal(
            fast.iterations[-1].stage_results[-1].final_phases,
            sequential.iterations[-1].stage_results[-1].final_phases,
        )

    def test_fast_engine_dense_backend_matches_legacy(self, fast_config):
        graph = kings_graph(6, 6)
        config = fast_config.with_updates(coupling_backend="dense")
        first = MSROPM(graph, config).solve(iterations=3, seed=13)
        again = MSROPM(graph, config).solve(
            iterations=3, seed=13, engine=BatchedEngine(coupling_backend="dense")
        )
        assert np.array_equal(first.accuracies, again.accuracies)
        assert np.array_equal(
            first.iterations[-1].stage_results[-1].final_phases,
            again.iterations[-1].stage_results[-1].final_phases,
        )

    def test_default_solve_materializes_no_trajectory(self, kings_5x5, fast_config, monkeypatch):
        created = []
        original = Trajectory.__post_init__

        def spy(self):
            created.append(self)
            original(self)

        monkeypatch.setattr(Trajectory, "__post_init__", spy)
        machine = MSROPM(kings_5x5, fast_config)
        machine.solve(iterations=3, seed=4)
        assert created == []  # the hot path never builds a trajectory
        machine.run_iteration(seed=4, collect_trajectory=True)
        assert created  # recording is opt-in, per executor

    def test_executor_cache_is_reused_across_solves(self, kings_5x5, fast_config):
        machine = MSROPM(kings_5x5, fast_config)
        machine.solve(iterations=2, seed=1)
        executor = machine.batched_executor("sparse")
        plan = executor.plan
        machine.solve(iterations=2, seed=2)
        assert machine.batched_executor("sparse") is executor
        assert executor.plan is plan

    def test_collect_trajectory_still_works(self, kings_5x5, fast_config):
        machine = MSROPM(kings_5x5, fast_config)
        result = machine.run_iteration(seed=3, collect_trajectory=True)
        assert result.trajectory is not None
        assert result.trajectory.phases.ndim == 2


class TestWarmScheduler:
    def _jobs(self, seeds, iterations=3):
        config = MSROPMConfig(
            num_colors=4,
            timing=TimingPlan(initialization=ns(1.0), annealing=ns(6.0), shil_settling=ns(2.0)),
            time_step=0.05e-9,
            seed=1234,
        )
        return [
            SolveJob(spec=KingsGraphSpec(4, 4), config=config, seed=seed, total_iterations=iterations)
            for seed in seeds
        ]

    @staticmethod
    def _fingerprint(results):
        return [
            [(item.iteration_index, item.seed, item.accuracy) for item in result.iterations]
            for result in results
        ]

    def test_warm_pool_reused_and_bit_identical(self):
        jobs = self._jobs(range(5))
        serial = JobScheduler(workers=1).run(jobs)
        with JobScheduler(workers=2) as scheduler:
            first = scheduler.run(jobs)
            assert scheduler.pool_active
            second = scheduler.run(self._jobs(range(5)))
            assert scheduler.pools_started == 1  # same pool served both batches
        assert not scheduler.pool_active
        assert self._fingerprint(serial) == self._fingerprint(first)
        assert self._fingerprint(serial) == self._fingerprint(second)

    def test_closed_scheduler_restarts_cleanly(self):
        jobs = self._jobs(range(4))
        scheduler = JobScheduler(workers=2)
        first = scheduler.run(jobs)
        scheduler.close()
        second = scheduler.run(jobs)
        assert scheduler.pools_started == 2
        assert self._fingerprint(first) == self._fingerprint(second)
        scheduler.close()

    def test_worker_initializer_caps_threads(self, monkeypatch):
        for name in WORKER_THREAD_CAPS:
            monkeypatch.delenv(name, raising=False)
        _worker_init(WORKER_THREAD_CAPS)
        for name, value in WORKER_THREAD_CAPS.items():
            assert os.environ[name] == value
            monkeypatch.delenv(name)

    def test_in_process_thread_cap(self):
        from repro.runtime.scheduler import limit_math_threads

        # Environment caps cannot reach a forked worker's already-loaded
        # BLAS; the in-process setter must handle that (where a BLAS with a
        # set_num_threads entry point is loaded at all, as with numpy's
        # bundled OpenBLAS on Linux).
        applied = limit_math_threads(1)
        assert isinstance(applied, bool)
        import numpy.linalg  # ensure a BLAS is genuinely loaded

        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps", encoding="utf-8") as handle:
                has_openblas = any("blas" in line.lower() for line in handle)
            if has_openblas:
                assert limit_math_threads(1) is True

    def test_serial_path_spins_no_pool(self):
        scheduler = JobScheduler(workers=1)
        scheduler.run(self._jobs(range(2)))
        assert not scheduler.pool_active
        assert scheduler.pools_started == 0

    def test_broken_pool_recovers_on_next_batch(self, monkeypatch):
        import multiprocessing

        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime import executors as executors_module

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker-crash injection relies on fork inheriting the patch")
        scheduler = JobScheduler(workers=2)
        try:
            # Every worker dies on its first job, poisoning the pool — and the
            # once-retried fresh pool dies the same way, so the error is
            # systematic and must propagate.
            monkeypatch.setattr(executors_module, "_execute_job", _crash_worker)
            with pytest.raises(BrokenProcessPool):
                scheduler.run(self._jobs(range(4)))
            assert not scheduler.pool_active  # the poisoned pools were dropped
            assert scheduler.backend.broken_pool_retries == 1
            assert scheduler.pools_started == 2  # original + the retry pool
            monkeypatch.undo()
            # The next batch must start a fresh, healthy pool.
            results = scheduler.run(self._jobs(range(4)))
            assert scheduler.pools_started == 3
            assert self._fingerprint(results) == self._fingerprint(
                JobScheduler(workers=1).run(self._jobs(range(4)))
            )
        finally:
            scheduler.close()


class TestMachineMemo:
    def _config(self, **overrides):
        base = MSROPMConfig(
            num_colors=4,
            timing=TimingPlan(initialization=ns(1.0), annealing=ns(4.0), shil_settling=ns(2.0)),
            time_step=0.05e-9,
            seed=7,
        )
        return base.with_updates(**overrides) if overrides else base

    def test_repeat_jobs_share_one_machine(self):
        clear_machine_memo()
        config = self._config()
        for seed in (1, 2, 3):
            SolveJob(spec=KingsGraphSpec(4, 4), config=config, seed=seed, total_iterations=2).run()
        assert MACHINE_MEMO_STATS["builds"] == 1
        assert MACHINE_MEMO_STATS["hits"] == 2

    def test_distinct_configs_do_not_collide(self):
        clear_machine_memo()
        first = self._config()
        second = self._config(coupling_strength=first.coupling_strength * 1.5)
        SolveJob(spec=KingsGraphSpec(4, 4), config=first, seed=1, total_iterations=2).run()
        SolveJob(spec=KingsGraphSpec(4, 4), config=second, seed=1, total_iterations=2).run()
        assert MACHINE_MEMO_STATS["builds"] == 2

    def test_nondeterministic_specs_never_memoized(self):
        clear_machine_memo()
        spec = GeneratedGraphSpec.create("er", n=12, p=0.3)  # no seed: not reproducible
        job = SolveJob(
            spec=spec, config=self._config(), seed=None, total_iterations=2
        )
        assert not job.memoizable
        job.run()
        job.run()
        assert MACHINE_MEMO_STATS["builds"] == 0

    def test_memoized_results_identical_to_fresh(self):
        clear_machine_memo()
        config = self._config()
        job = SolveJob(spec=KingsGraphSpec(4, 4), config=config, seed=5, total_iterations=3)
        warm_first = job.run()
        warm_second = job.run()  # memo hit
        assert np.array_equal(warm_first.accuracies, warm_second.accuracies)
        for a, b in zip(warm_first.iterations, warm_second.iterations):
            assert a.coloring.assignment == b.coloring.assignment


class TestReferenceCache:
    def test_cached_reference_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        instance = next(
            item for item in expand_workloads(["er"], base_seed=11) if item.seed is not None
        )
        cold = cached_reference(instance, cache=cache)
        assert cache.payload_stores == 1
        warm = cached_reference(instance, cache=cache)
        assert cache.payload_hits == 1
        assert warm == cold

    def test_reference_key_requires_determinism(self):
        instance = expand_workloads(["kings"], base_seed=1)[0]
        assert reference_cache_key(instance) is not None
        # A seedless generated spec has no stable identity.
        from repro.workloads.registry import WorkloadInstance

        seedless = WorkloadInstance(
            family="er",
            label="er-free",
            params=(("n", 12), ("p", 0.3)),
            seed=None,
            spec=GeneratedGraphSpec.create("er", n=12, p=0.3),
            kind="coloring",
            num_colors=4,
        )
        assert reference_cache_key(seedless) is None

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        instance = expand_workloads(["kings"], base_seed=1)[0]
        key = reference_cache_key(instance)
        cached_reference(instance, cache=cache)
        path = cache.payload_path("reference", key)
        path.write_text("{not json", encoding="utf-8")
        again = cached_reference(instance, cache=cache)
        # Two misses: the cold lookup before the first store, then the
        # corrupted entry (which is rewritten rather than erroring).
        assert cache.payload_misses == 2
        assert again.colorable is True
