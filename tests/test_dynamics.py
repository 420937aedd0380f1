"""Tests for the phase dynamics: integrators, the Kuramoto+SHIL model, noise, schedules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.exceptions import SimulationError
from repro.circuit import paper_rosc
from repro.dynamics import (
    AnnealingPolicy,
    BatchedOscillatorModel,
    CoupledOscillatorModel,
    FastBlockDiagonalCoupling,
    FastSharedCoupling,
    GroupMaskedDenseCoupling,
    EnergyTrace,
    PhaseNoiseModel,
    Trajectory,
    constant_ramp,
    energy_trace,
    exponential_settle,
    integrate_euler_maruyama,
    integrate_rk4,
    integrate_scipy,
    linear_ramp,
    order_parameter_trace,
    perturbed_phases,
    random_initial_phases,
    smooth_ramp,
    uniform_coupling_matrix,
)
from repro.graphs import cycle_graph, kings_graph
from repro.rng import ReplicaRNG, make_rng


def two_oscillator_model(rate=1e9, shil_strength=0.0, shil_offset=0.0, order=2):
    """A pair of repulsively coupled oscillators."""
    matrix = uniform_coupling_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), rate)
    return CoupledOscillatorModel(
        coupling_matrix=matrix,
        shil_strength=shil_strength,
        shil_offset=shil_offset,
        shil_order=order,
    )


class TestIntegrators:
    def test_rk4_exponential_decay(self):
        """RK4 must integrate d(theta)/dt = -k*theta accurately."""
        k = 1e9

        def rhs(_t, theta):
            return -k * theta

        trajectory = integrate_rk4(rhs, np.array([1.0]), duration=2e-9, dt=1e-11)
        assert trajectory.final_phases[0] == pytest.approx(np.exp(-2.0), rel=1e-4)

    def test_rk4_matches_scipy(self):
        model = two_oscillator_model(rate=5e8)
        start = np.array([0.3, 1.1])
        fixed = integrate_rk4(model, start, duration=5e-9, dt=2e-11)
        adaptive = integrate_scipy(model, start, duration=5e-9)
        assert np.allclose(fixed.final_phases, adaptive.final_phases, atol=1e-4)

    def test_euler_maruyama_without_noise_matches_rk4_loosely(self):
        model = two_oscillator_model(rate=5e8)
        start = np.array([0.3, 1.1])
        em = integrate_euler_maruyama(model, start, duration=5e-9, dt=5e-12, noise_amplitude=0.0)
        rk = integrate_rk4(model, start, duration=5e-9, dt=5e-12)
        assert np.allclose(em.final_phases, rk.final_phases, atol=1e-3)

    def test_euler_maruyama_noise_reproducible(self):
        model = two_oscillator_model()
        start = np.array([0.1, 2.0])
        a = integrate_euler_maruyama(model, start, 2e-9, 1e-11, noise_amplitude=1e6, seed=5)
        b = integrate_euler_maruyama(model, start, 2e-9, 1e-11, noise_amplitude=1e6, seed=5)
        assert np.allclose(a.final_phases, b.final_phases)

    def test_record_every_thins_trajectory(self):
        model = two_oscillator_model()
        dense = integrate_rk4(model, np.array([0.0, 1.0]), 1e-9, 1e-11, record_every=1)
        thin = integrate_rk4(model, np.array([0.0, 1.0]), 1e-9, 1e-11, record_every=10)
        assert len(thin.times) < len(dense.times)
        assert np.allclose(thin.final_phases, dense.final_phases)

    def test_validation(self):
        model = two_oscillator_model()
        with pytest.raises(SimulationError):
            integrate_rk4(model, np.zeros(2), duration=0.0, dt=1e-12)
        with pytest.raises(SimulationError):
            integrate_rk4(model, np.zeros(2), duration=1e-9, dt=-1e-12)
        with pytest.raises(SimulationError):
            integrate_euler_maruyama(model, np.zeros(2), 1e-9, 1e-12, noise_amplitude=-1.0)
        with pytest.raises(SimulationError):
            integrate_scipy(model, np.zeros(2), duration=-1.0)

    def test_trajectory_helpers(self):
        times = np.linspace(0, 1e-9, 5)
        phases = np.zeros((5, 3))
        trajectory = Trajectory(times=times, phases=phases)
        assert trajectory.num_steps == 4
        assert trajectory.at_time(0.6e-9).shape == (3,)
        other = Trajectory(times=times + 1e-9, phases=phases + 1.0)
        joined = trajectory.concatenate(other)
        assert len(joined.times) == 9

    def test_trajectory_shape_validation(self):
        with pytest.raises(SimulationError):
            Trajectory(times=np.zeros(3), phases=np.zeros((2, 4)))


class TestCoupledOscillatorModel:
    def test_repulsive_pair_settles_anti_phase(self):
        """Two B2B-coupled oscillators must end up 180 degrees apart."""
        model = two_oscillator_model(rate=2e9)
        trajectory = integrate_rk4(model, np.array([0.0, 0.5]), duration=20e-9, dt=2e-11)
        difference = abs(trajectory.final_phases[0] - trajectory.final_phases[1]) % (2 * np.pi)
        assert difference == pytest.approx(np.pi, abs=1e-2)

    def test_shil_binarizes_isolated_oscillators(self):
        """With SHIL only (no coupling), every phase must land on the 2-phase grid."""
        num = 16
        matrix = uniform_coupling_matrix(np.zeros((num, num)), 0.0)
        model = CoupledOscillatorModel(coupling_matrix=matrix, shil_strength=2e9, shil_order=2)
        start = random_initial_phases(num, seed=3)
        trajectory = integrate_rk4(model, start, duration=20e-9, dt=2e-11)
        final = np.mod(trajectory.final_phases, 2 * np.pi)
        distance_to_grid = np.minimum(
            np.minimum(np.abs(final - 0.0), np.abs(final - np.pi)), np.abs(final - 2 * np.pi)
        )
        assert np.all(distance_to_grid < 0.05)

    def test_shifted_shil_moves_the_lock_grid(self):
        num = 8
        matrix = uniform_coupling_matrix(np.zeros((num, num)), 0.0)
        model = CoupledOscillatorModel(
            coupling_matrix=matrix, shil_strength=2e9, shil_offset=np.pi / 2, shil_order=2
        )
        start = random_initial_phases(num, seed=4)
        final = np.mod(integrate_rk4(model, start, 20e-9, 2e-11).final_phases, 2 * np.pi)
        distance = np.minimum(np.abs(final - np.pi / 2), np.abs(final - 3 * np.pi / 2))
        assert np.all(distance < 0.05)

    def test_third_order_shil_creates_three_locks(self):
        num = 12
        matrix = uniform_coupling_matrix(np.zeros((num, num)), 0.0)
        model = CoupledOscillatorModel(coupling_matrix=matrix, shil_strength=2e9, shil_order=3)
        start = random_initial_phases(num, seed=5)
        final = np.mod(integrate_rk4(model, start, 20e-9, 2e-11).final_phases, 2 * np.pi)
        grid = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi])
        distance = np.min(np.abs(final[:, None] - grid[None, :]), axis=1)
        assert np.all(distance < 0.05)

    def test_energy_decreases_without_noise(self):
        """The noise-free flow is gradient descent on the model energy."""
        graph = kings_graph(4, 4)
        matrix = uniform_coupling_matrix(graph.sparse_adjacency(), 1e9)
        model = CoupledOscillatorModel(coupling_matrix=matrix, shil_strength=5e8, shil_order=2)
        start = random_initial_phases(graph.num_nodes, seed=8)
        trajectory = integrate_rk4(model, start, duration=10e-9, dt=1e-11, record_every=5)
        trace = energy_trace(model, trajectory)
        assert trace.is_monotone_nonincreasing(tolerance=1e-3)
        assert trace.final < trace.initial

    def test_order_parameter_bounds(self):
        model = two_oscillator_model()
        assert model.order_parameter(np.array([0.0, 0.0])) == pytest.approx(1.0)
        assert model.order_parameter(np.array([0.0, np.pi])) == pytest.approx(0.0, abs=1e-12)

    def test_second_harmonic_order_parameter_detects_binarization(self):
        model = two_oscillator_model()
        binarized = np.array([0.0, np.pi])
        assert model.order_parameter(binarized, harmonic=2) == pytest.approx(1.0)

    def test_detuning_shifts_rates(self):
        matrix = uniform_coupling_matrix(np.zeros((2, 2)), 0.0)
        model = CoupledOscillatorModel(coupling_matrix=matrix, frequency_detuning=np.array([1e9, -1e9]))
        rates = model(0.0, np.array([0.0, 0.0]))
        assert rates[0] == pytest.approx(1e9)
        assert rates[1] == pytest.approx(-1e9)

    def test_ramps_scale_terms(self):
        model = CoupledOscillatorModel(
            coupling_matrix=uniform_coupling_matrix(np.array([[0, 1], [1, 0]]), 1e9),
            shil_strength=1e9,
            coupling_ramp=constant_ramp(0.0),
            shil_ramp=constant_ramp(0.0),
        )
        rates = model(0.0, np.array([0.3, 1.0]))
        assert np.allclose(rates, 0.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            CoupledOscillatorModel(coupling_matrix=np.zeros((2, 3)))
        with pytest.raises(SimulationError):
            CoupledOscillatorModel(coupling_matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(SimulationError):
            CoupledOscillatorModel(coupling_matrix=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(SimulationError):
            CoupledOscillatorModel(coupling_matrix=np.zeros((2, 2)), shil_order=1)
        with pytest.raises(SimulationError):
            CoupledOscillatorModel(coupling_matrix=np.zeros((2, 2)), shil_strength=-1.0)
        model = two_oscillator_model()
        with pytest.raises(SimulationError):
            model(0.0, np.zeros(3))
        with pytest.raises(SimulationError):
            uniform_coupling_matrix(np.eye(2), -1.0)


class TestBatchedDynamics:
    """Shape and equivalence properties of the (R, N) batched code paths."""

    def test_model_accepts_flat_and_batched_phases(self):
        model = two_oscillator_model(rate=5e8)
        flat = model(0.0, np.array([0.3, 1.1]))
        assert flat.shape == (2,)
        batch = np.array([[0.3, 1.1], [1.0, 0.2], [2.0, 2.5]])
        batched = model(0.0, batch)
        assert batched.shape == (3, 2)
        # Each batched row is bit-identical to the flat evaluation.
        for row, phases in zip(batched, batch):
            assert np.array_equal(row, model(0.0, phases))
        with pytest.raises(SimulationError):
            model(0.0, np.zeros((3, 3)))

    def test_rk4_batched_rows_match_individual_runs(self):
        model = two_oscillator_model(rate=5e8)
        batch = np.array([[0.3, 1.1], [1.9, 0.4]])
        together = integrate_rk4(model, batch, duration=2e-9, dt=2e-11)
        assert together.phases.shape[1:] == (2, 2)
        assert together.final_phases.shape == (2, 2)
        for index in range(2):
            alone = integrate_rk4(model, batch[index], duration=2e-9, dt=2e-11)
            assert np.array_equal(together.final_phases[index], alone.final_phases)

    def test_euler_maruyama_batched_matches_per_replica_streams(self):
        model = two_oscillator_model(rate=5e8)
        batch = np.array([[0.3, 1.1], [1.9, 0.4], [0.1, 2.2]])
        seeds = [11, 12, 13]
        together = integrate_euler_maruyama(
            model, batch, duration=2e-9, dt=2e-11, noise_amplitude=1e6,
            seed=ReplicaRNG.from_seeds(seeds),
        )
        for index, seed in enumerate(seeds):
            alone = integrate_euler_maruyama(
                model, batch[index], duration=2e-9, dt=2e-11, noise_amplitude=1e6, seed=seed
            )
            assert np.array_equal(together.final_phases[index], alone.final_phases)

    def test_trajectory_supports_batched_phases(self):
        times = np.linspace(0, 1e-9, 4)
        phases = np.zeros((4, 5, 3))
        trajectory = Trajectory(times=times, phases=phases)
        assert trajectory.final_phases.shape == (5, 3)
        joined = trajectory.concatenate(
            Trajectory(times=times + 1e-9, phases=phases + 1.0)
        )
        assert joined.phases.shape == (7, 5, 3)
        with pytest.raises(SimulationError):
            trajectory.concatenate(Trajectory(times=times, phases=np.zeros((4, 2, 3))))

    def test_shared_coupling_matches_per_replica_matvec(self):
        matrix = uniform_coupling_matrix(kings_graph(3, 3).sparse_adjacency(), 1e9)
        operator = FastSharedCoupling(matrix)
        field = make_rng(0).uniform(-1.0, 1.0, size=(4, 9))
        applied = operator.apply(field)
        paired_a, paired_b = operator.apply_pair(field, field * 2.0)
        for index in range(4):
            expected = matrix @ field[index]
            assert np.array_equal(applied[index], expected)
            assert np.array_equal(paired_a[index], expected)
            assert np.array_equal(paired_b[index], matrix @ (field[index] * 2.0))

    def test_block_diagonal_coupling_matches_per_replica_matvec(self):
        rng = make_rng(1)
        blocks = []
        for _ in range(3):
            dense = np.triu(rng.uniform(0.0, 1.0, size=(6, 6)), k=1)
            blocks.append(dense + dense.T)
        operator = FastBlockDiagonalCoupling(sparse.block_diag(blocks, format="csr"), 3, 6)
        field = rng.uniform(-1.0, 1.0, size=(3, 6))
        applied = operator.apply(field)
        paired_a, paired_b = operator.apply_pair(field, -field)
        for index, block in enumerate(blocks):
            assert np.allclose(applied[index], block @ field[index])
            assert np.array_equal(paired_a[index], applied[index])
            assert np.array_equal(paired_b[index], -applied[index])
        with pytest.raises(SimulationError):
            operator.apply(np.zeros((2, 6)))

    def test_group_masked_dense_equals_gated_matrices(self):
        rng = make_rng(2)
        dense = np.triu(rng.uniform(0.0, 1.0, size=(8, 8)), k=1)
        base = dense + dense.T
        groups = np.array([[0, 0, 1, 1, 0, 1, 0, 1], [1, 1, 1, 1, 0, 0, 0, 0]])
        operator = GroupMaskedDenseCoupling(base, groups)
        field = rng.uniform(-1.0, 1.0, size=(2, 8))
        applied = operator.apply(field)
        for index in range(2):
            gate = (groups[index][:, None] == groups[index][None, :]).astype(float)
            assert np.allclose(applied[index], (base * gate) @ field[index])

    def test_group_masked_dense_single_group_is_plain_gemm(self):
        base = np.array([[0.0, 2.0], [2.0, 0.0]])
        operator = GroupMaskedDenseCoupling(base, np.zeros((3, 2), dtype=int))
        field = np.arange(6.0).reshape(3, 2)
        assert np.allclose(operator.apply(field), field @ base)

    def test_batched_model_matches_sequential_model(self):
        matrix = uniform_coupling_matrix(kings_graph(3, 3).sparse_adjacency(), 1e9)
        sequential = CoupledOscillatorModel(
            coupling_matrix=matrix, shil_strength=5e8, shil_offset=0.25, shil_order=2
        )
        batched = BatchedOscillatorModel(
            coupling=FastSharedCoupling(matrix),
            num_oscillators=9,
            shil_strength=5e8,
            shil_offset=0.25,
            shil_order=2,
        )
        batch = make_rng(3).uniform(0.0, 2 * np.pi, size=(5, 9))
        together = batched(0.0, batch)
        for index in range(5):
            assert np.array_equal(together[index], sequential(0.0, batch[index]))

    def test_batched_model_validation(self):
        operator = FastSharedCoupling(np.zeros((3, 3)))
        with pytest.raises(SimulationError):
            BatchedOscillatorModel(coupling=operator, num_oscillators=3, shil_order=1)
        with pytest.raises(SimulationError):
            BatchedOscillatorModel(coupling=operator, num_oscillators=3, shil_strength=-1.0)
        with pytest.raises(SimulationError):
            BatchedOscillatorModel(
                coupling=operator, num_oscillators=3, frequency_detuning=np.zeros(2)
            )
        model = BatchedOscillatorModel(coupling=operator, num_oscillators=3)
        with pytest.raises(SimulationError):
            model(0.0, np.zeros(3))  # flat input: batched model wants (R, N)

    @given(replicas=st.integers(min_value=1, max_value=5), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_batched_initial_phases_shape_property(self, replicas, seed):
        rng = ReplicaRNG.from_seeds(list(range(seed, seed + replicas)))
        phases = random_initial_phases(7, rng)
        assert phases.shape == (replicas, 7)
        assert np.all((phases >= 0.0) & (phases < 2 * np.pi))
        perturbed = perturbed_phases(phases, amplitude=0.1, seed=rng)
        assert perturbed.shape == (replicas, 7)
        assert np.all(np.abs(perturbed - phases) <= 0.1)


class TestNoise:
    def test_diffusion_from_oscillator(self):
        model = PhaseNoiseModel.from_oscillator(paper_rosc(), jitter_fraction=0.01)
        assert model.diffusion > 0

    def test_phase_std_grows_with_sqrt_time(self):
        model = PhaseNoiseModel(diffusion=1e6)
        assert model.phase_std_after(4e-9) == pytest.approx(2 * model.phase_std_after(1e-9))

    def test_sample_walk_statistics(self):
        model = PhaseNoiseModel(diffusion=1e7)
        samples = model.sample_walk(20000, 10e-9, seed=1)
        assert np.std(samples) == pytest.approx(model.phase_std_after(10e-9), rel=0.05)

    def test_random_initial_phases_uniform(self):
        phases = random_initial_phases(10000, seed=2)
        assert 0 <= phases.min() and phases.max() < 2 * np.pi
        assert np.mean(phases) == pytest.approx(np.pi, rel=0.05)

    def test_perturbed_phases_bounded(self):
        base = np.zeros(100)
        perturbed = perturbed_phases(base, amplitude=0.3, seed=3)
        assert np.all(np.abs(perturbed) <= 0.3)

    def test_validation(self):
        with pytest.raises(SimulationError):
            PhaseNoiseModel(diffusion=-1.0)
        with pytest.raises(SimulationError):
            perturbed_phases(np.zeros(3), amplitude=-0.1)
        with pytest.raises(SimulationError):
            random_initial_phases(-1)


class TestSchedules:
    def test_constant_ramp(self):
        ramp = constant_ramp(0.7)
        assert ramp(0.0) == 0.7
        assert ramp(100.0) == 0.7

    def test_linear_ramp_endpoints_and_clamping(self):
        ramp = linear_ramp(10e-9, start=0.0, end=1.0, t0=5e-9)
        assert ramp(0.0) == 0.0
        assert ramp(10e-9) == pytest.approx(0.5)
        assert ramp(15e-9) == pytest.approx(1.0)
        assert ramp(100e-9) == pytest.approx(1.0)

    def test_smooth_ramp_monotone(self):
        ramp = smooth_ramp(10e-9)
        values = [ramp(t) for t in np.linspace(0, 10e-9, 21)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.0)
        assert values[-1] == pytest.approx(1.0)

    def test_exponential_settle(self):
        ramp = exponential_settle(1e-9, start=0.0, end=1.0)
        assert ramp(0.0) == 0.0
        assert ramp(5e-9) == pytest.approx(1.0, abs=1e-2)

    def test_annealing_policy_ramps(self):
        policy = AnnealingPolicy(shil_ramp_fraction=0.5, coupling_soft_start_fraction=0.1)
        shil = policy.shil_ramp(10e-9, 4e-9)
        assert shil(10e-9) == pytest.approx(0.0)
        assert shil(12e-9) == pytest.approx(1.0)
        coupling = policy.coupling_ramp(0.0, 10e-9)
        assert coupling(0.0) == pytest.approx(0.2)
        assert coupling(2e-9) == pytest.approx(1.0)

    def test_zero_fraction_policies_are_constant(self):
        policy = AnnealingPolicy(shil_ramp_fraction=0.0, coupling_soft_start_fraction=0.0)
        assert policy.shil_ramp(0.0, 1e-9)(0.0) == 1.0
        assert policy.coupling_ramp(0.0, 1e-9)(0.0) == 1.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            linear_ramp(0.0)
        with pytest.raises(SimulationError):
            smooth_ramp(1e-9, start=-0.1)
        with pytest.raises(SimulationError):
            exponential_settle(0.0)
        with pytest.raises(SimulationError):
            constant_ramp(-1.0)
        with pytest.raises(SimulationError):
            AnnealingPolicy(shil_ramp_fraction=1.5)


class TestEnergyTrace:
    def test_trace_fields(self):
        trace = EnergyTrace(times=np.array([0.0, 1.0, 2.0]), energies=np.array([3.0, 2.0, 1.0]))
        assert trace.initial == 3.0
        assert trace.final == 1.0
        assert trace.minimum == 1.0
        assert trace.total_decrease() == 2.0
        assert trace.is_monotone_nonincreasing()

    def test_trace_shape_validation(self):
        with pytest.raises(SimulationError):
            EnergyTrace(times=np.zeros(3), energies=np.zeros(2))

    def test_order_parameter_trace(self):
        model = two_oscillator_model(rate=2e9)
        trajectory = integrate_rk4(model, np.array([0.0, 0.3]), 10e-9, 2e-11, record_every=10)
        series = order_parameter_trace(model, trajectory)
        assert series.shape == (len(trajectory.times),)
        # Repulsive coupling drives the pair towards anti-phase, i.e. low first-harmonic order.
        assert series[-1] < series[0]
