"""Tests for the behavioural circuit blocks: technology, inverter, ROSC, coupling, SHIL."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CircuitError
from repro.circuit import (
    TECH_65NM_GP,
    TECH_65NM_LP,
    Inverter,
    RingOscillator,
    CouplingElement,
    Technology,
    b2b_coupling,
    dynamic_power,
    leakage_power,
    paper_rosc,
)
from repro.core.stages import group_offsets
from repro.dynamics import BatchedOscillatorModel, FastSharedCoupling
from repro.units import as_ghz, ghz


class TestTechnology:
    def test_default_corner_is_1v(self):
        assert TECH_65NM_GP.supply_voltage == 1.0
        assert TECH_65NM_GP.name == "65nm-GP"

    def test_lp_corner_leaks_less(self):
        assert TECH_65NM_LP.leakage_current_per_um < TECH_65NM_GP.leakage_current_per_um

    def test_dynamic_power_formula(self):
        assert dynamic_power(1e-15, 1.0, 1e9) == pytest.approx(1e-6)
        assert dynamic_power(1e-15, 1.0, 1e9, activity=0.5) == pytest.approx(0.5e-6)

    def test_dynamic_power_validation(self):
        with pytest.raises(CircuitError):
            dynamic_power(-1e-15, 1.0, 1e9)
        with pytest.raises(CircuitError):
            dynamic_power(1e-15, 1.0, 1e9, activity=2.0)

    def test_leakage_power(self):
        assert leakage_power(10.0) == pytest.approx(10.0 * TECH_65NM_GP.leakage_current_per_um)
        with pytest.raises(CircuitError):
            leakage_power(-1.0)

    def test_invalid_technology(self):
        with pytest.raises(CircuitError):
            Technology(supply_voltage=0.0)


class TestInverter:
    def test_paper_skew_ratio(self):
        inverter = Inverter()
        assert inverter.beta_ratio == pytest.approx(4.0)

    def test_minimum_width_enforced(self):
        with pytest.raises(CircuitError):
            Inverter(nmos_width_um=0.01)

    def test_skewed_inverter_has_asymmetric_delays(self):
        inverter = Inverter()
        # The PMOS is 4x wide but only ~half as strong per um, so rise is faster than fall.
        assert inverter.rise_delay() < inverter.fall_delay()

    def test_delay_increases_with_fanout(self):
        inverter = Inverter()
        assert inverter.propagation_delay(fanout=4) > inverter.propagation_delay(fanout=1)

    def test_fanout_validation(self):
        with pytest.raises(CircuitError):
            Inverter().load_capacitance(fanout=-1)

    def test_power_scales_with_frequency(self):
        inverter = Inverter()
        assert inverter.switching_power(2e9) == pytest.approx(2 * inverter.switching_power(1e9))

    def test_leakage_positive(self):
        assert Inverter().leakage() > 0


class TestRingOscillator:
    def test_odd_stage_count_required(self):
        with pytest.raises(CircuitError):
            RingOscillator(num_stages=10)
        with pytest.raises(CircuitError):
            RingOscillator(num_stages=1)

    def test_paper_rosc_hits_target_frequency(self):
        rosc = paper_rosc(ghz(1.3))
        assert as_ghz(rosc.natural_frequency) == pytest.approx(1.3, rel=0.02)
        assert rosc.num_stages == 11

    def test_frequency_decreases_with_more_stages(self):
        fast = RingOscillator(num_stages=5)
        slow = RingOscillator(num_stages=21)
        assert slow.natural_frequency < fast.natural_frequency

    def test_power_components(self):
        rosc = paper_rosc()
        assert rosc.dynamic_power() > 0
        assert rosc.leakage_power() > 0
        assert rosc.total_power() == pytest.approx(rosc.dynamic_power() + rosc.leakage_power())

    def test_power_scales_with_activity(self):
        rosc = paper_rosc()
        assert rosc.dynamic_power(activity=0.5) == pytest.approx(0.5 * rosc.dynamic_power(activity=1.0))

    def test_jitter_and_diffusion(self):
        rosc = paper_rosc()
        assert rosc.period_jitter_rms(0.01) == pytest.approx(0.01 * rosc.period)
        assert rosc.phase_noise_diffusion(0.01) > 0
        with pytest.raises(CircuitError):
            rosc.period_jitter_rms(-0.1)

    def test_scaled_to_invalid_frequency(self):
        with pytest.raises(CircuitError):
            RingOscillator().scaled_to_frequency(0.0)


class TestCoupling:
    def test_b2b_is_inverting(self):
        element = b2b_coupling(0.2)
        assert element.inverting
        assert element.effective_strength == pytest.approx(0.2)
        # Anti-phase preference = positive J under the Eq. (1) convention.
        assert element.ising_coupling() == pytest.approx(0.2)

    def test_gating(self):
        element = b2b_coupling(0.2)
        element.set_partition_enable(False)
        assert not element.is_conducting
        assert element.effective_strength == 0.0
        assert element.ising_coupling() == 0.0
        element.set_partition_enable(True)
        element.set_local_enable(False)
        assert not element.is_conducting

    def test_negative_strength_rejected(self):
        with pytest.raises(CircuitError):
            CouplingElement(strength=-0.1)

    def test_power_zero_when_gated(self):
        element = b2b_coupling(0.2)
        element.set_local_enable(False)
        assert element.switching_power(1.3e9) == 0.0
        element.set_local_enable(True)
        assert element.switching_power(1.3e9) > 0

    def test_non_inverting_sign(self):
        element = CouplingElement(strength=0.3, inverting=False)
        assert element.ising_coupling() == pytest.approx(-0.3)


def shil_model(offset=0.0, order=2, strength=0.2, num_oscillators=4):
    """A batched oscillator model carrying only the SHIL injection (no coupling)."""
    return BatchedOscillatorModel(
        coupling=FastSharedCoupling(np.zeros((num_oscillators, num_oscillators))),
        num_oscillators=num_oscillators,
        shil_strength=strength,
        shil_offset=offset,
        shil_order=order,
    )


def stable_locks(offset=0.0, order=2, points=3600):
    """Sorted phases in [0, 2*pi) where the SHIL torque crosses zero from + to -."""
    step = 2.0 * np.pi / points
    # Sample between multiples of the step so no lock phase lies on a sample.
    grid = (np.arange(points) + 0.5) * step
    torque = shil_model(offset, order, num_oscillators=points).shil_term(grid.reshape(1, -1))[0]
    crossings = (torque > 0) & (np.roll(torque, -1) < 0)
    return np.sort(np.mod(grid[crossings] + step / 2, 2.0 * np.pi))


class TestShil:
    """SHIL is modelled by the phase dynamics' restoring term ``-K_s sin(m (theta - phi))``.

    SHIL 1 is lock-grid offset 0, SHIL 2 the stage-2 offset that
    :func:`repro.core.stages.group_offsets` assigns to group 1 (pi/2), and the
    single-stage ROPM baseline's N-SHIL is order ``m = N``.
    """

    def test_shil_runs_at_twice_the_frequency(self):
        model = shil_model(num_oscillators=7)
        assert model.shil_order == 2
        # A 2nd-harmonic injection repeats every half cycle of the fundamental.
        phases = np.linspace(0.0, np.pi, 7).reshape(1, -1)
        assert np.allclose(model.shil_term(phases), model.shil_term(phases + np.pi), atol=1e-12)

    def test_shil1_locks_at_0_and_180(self):
        assert np.allclose(stable_locks(offset=0.0), [0.0, np.pi], atol=1e-2)

    def test_shil2_locks_at_90_and_270(self):
        shil2_offset = group_offsets(np.array([0, 1]), stage_index=2)[1]
        locks = stable_locks(offset=shil2_offset)
        assert np.allclose(locks, [np.pi / 2, 3 * np.pi / 2], atol=1e-2)

    def test_n_shil_lock_count(self):
        locks = stable_locks(order=3)
        assert len(locks) == 3
        assert np.allclose(locks, [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-2)

    def test_lock_phases_are_stable_points_of_the_restoring_torque(self):
        cases = (
            (0.0, 2, [0.0, np.pi]),
            (np.pi / 2, 2, [np.pi / 2, 3 * np.pi / 2]),
            (0.0, 3, [0.0, 2 * np.pi / 3, 4 * np.pi / 3]),
        )
        for offset, order, locks in cases:
            model = shil_model(offset=offset, order=order, num_oscillators=len(locks))
            locks = np.array([locks])
            assert np.allclose(model.shil_term(locks), 0.0, atol=1e-12)
            # Slightly off a lock phase, the torque pushes back towards it.
            epsilon = 1e-3
            assert np.all(model.shil_term(locks + epsilon) < 0)
            assert np.all(model.shil_term(locks - epsilon) > 0)

    def test_value_is_bounded(self):
        model = shil_model(strength=0.3, num_oscillators=50)
        phases = np.linspace(0.0, 2.0 * np.pi, 50).reshape(1, -1)
        assert np.all(np.abs(model.shil_term(phases)) <= 0.3 + 1e-12)

    def test_with_strength(self):
        phases = np.array([[0.1, 0.7, 2.0, 4.0]])
        weak = shil_model(strength=0.2).shil_term(phases)
        strong = shil_model(strength=0.5).shil_term(phases)
        assert np.allclose(strong, weak * 2.5)
