"""Phase-domain dynamics: Kuramoto+SHIL model, integrators, noise, schedules."""

from repro.dynamics.integrators import (
    Trajectory,
    integrate_euler_maruyama,
    integrate_rk4,
)
from repro.dynamics.batched import (
    BatchedOscillatorModel,
    CouplingOperator,
    FastBlockDiagonalCoupling,
    FastSharedCoupling,
)
from repro.dynamics.kuramoto import CoupledOscillatorModel, uniform_coupling_matrix
from repro.dynamics.noise import PhaseNoiseModel, perturbed_phases, random_initial_phases
from repro.dynamics.schedules import (
    AnnealingPolicy,
    constant_ramp,
    exponential_settle,
    linear_ramp,
    smooth_ramp,
)
from repro.dynamics.waveform import (
    WaveformSet,
    phase_to_voltage,
    reconstruct_waveforms,
    square_wave,
)

__all__ = [
    "Trajectory",
    "integrate_rk4",
    "integrate_euler_maruyama",
    "CoupledOscillatorModel",
    "BatchedOscillatorModel",
    "CouplingOperator",
    "FastSharedCoupling",
    "FastBlockDiagonalCoupling",
    "uniform_coupling_matrix",
    "PhaseNoiseModel",
    "random_initial_phases",
    "perturbed_phases",
    "AnnealingPolicy",
    "constant_ramp",
    "linear_ramp",
    "smooth_ramp",
    "exponential_settle",
    "WaveformSet",
    "phase_to_voltage",
    "square_wave",
    "reconstruct_waveforms",
]
