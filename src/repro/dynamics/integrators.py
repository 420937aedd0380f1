"""ODE/SDE integrators for the phase dynamics.

Two integration backends are provided:

* a fixed-step 4th-order Runge-Kutta integrator (deterministic runs,
  waveform-quality trajectories),
* a fixed-step Euler-Maruyama integrator (stochastic runs with phase noise —
  the workhorse of the accuracy experiments).

All integrators operate on a right-hand-side callback ``f(t, theta) -> dtheta/dt``
and return the full trajectory so the waveform and energy-tracking utilities
can inspect intermediate states.  The integrators are shape agnostic:
``theta`` may be a flat ``(N,)`` phase vector or a batched ``(R, N)`` array of
R replicas advanced in lock-step (the batched engine's hot path).

Hot-path structure
------------------

The fixed-step loops are written to be allocation-free per step: the state is
advanced in place through integrator-owned scratch buffers, recorded samples
go into one preallocated ``(S_rec, ...)`` output buffer instead of a Python
list, and Euler-Maruyama noise blocks are pre-scaled once per block.  All of
these are bit-exact rewrites of the original expressions (``theta += step *
drift`` produces exactly the floats of ``theta = theta + step * drift``), which
the regression tests pin against straight reference loops.

A right-hand side may additionally expose the in-place evaluation protocol
``rhs.evaluate_into(t, theta, out) -> out`` (both oscillator models do).  The
integrators then reuse one drift buffer — and, for RK4, four stage buffers —
across all steps.  Plain callables without the protocol run through a
compatible path that never mutates the array a callback returns, so arbitrary
``f(t, theta)`` lambdas remain safe.

When only the final state is needed (the default solve path — intermediate
states of a solve are never read), :func:`euler_maruyama_final` and
:func:`rk4_final` skip trajectory recording entirely and return the final
phase array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.rng import SeedLike, make_rng, normal_noise_block

RHS = Callable[[float, np.ndarray], np.ndarray]

#: Target element count of one prefetched noise block: 1 MB in float32 (2 MB
#: in float64), so the throughput tier's float32 block stays in L2 cache
#: between its draw, its prescale and the per-step adds, whatever the batch
#: size.
_NOISE_BLOCK_ELEMENTS = 262_144


@dataclass
class Trajectory:
    """A simulated trajectory: times and the phase vector at each time.

    Attributes
    ----------
    times:
        1-D array of time points (seconds), including the initial time.
    phases:
        Array of shape ``(len(times), num_oscillators)`` for a single run, or
        ``(len(times), num_replicas, num_oscillators)`` for a batched run.
    """

    times: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.phases = np.asarray(self.phases, dtype=float)
        if self.phases.ndim not in (2, 3) or self.phases.shape[0] != self.times.shape[0]:
            raise SimulationError(
                f"phases shape {self.phases.shape} inconsistent with {self.times.shape[0]} time points"
            )

    @property
    def final_phases(self) -> np.ndarray:
        """The phase vector at the last time point."""
        return self.phases[-1]

    @property
    def initial_phases(self) -> np.ndarray:
        """The phase vector at the first time point."""
        return self.phases[0]

    @property
    def num_steps(self) -> int:
        """Number of integration steps taken."""
        return len(self.times) - 1

    def at_time(self, time: float) -> np.ndarray:
        """Return the phase vector at the stored time nearest to ``time``."""
        index = int(np.argmin(np.abs(self.times - time)))
        return self.phases[index]

    def concatenate(self, other: "Trajectory") -> "Trajectory":
        """Append ``other`` (whose first sample duplicates this trajectory's last)."""
        if other.phases.shape[1:] != self.phases.shape[1:]:
            raise SimulationError("cannot concatenate trajectories of different sizes")
        return Trajectory(
            times=np.concatenate([self.times, other.times[1:]]),
            phases=np.vstack([self.phases, other.phases[1:]]),
        )


def _validate_step(duration: float, dt: float) -> int:
    if duration <= 0:
        raise SimulationError(f"duration must be positive, got {duration}")
    if dt <= 0:
        raise SimulationError(f"dt must be positive, got {dt}")
    num_steps = int(np.ceil(duration / dt))
    if num_steps < 1:
        raise SimulationError("duration shorter than one time step")
    return num_steps


def _record_count(num_steps: int, record_every: int) -> int:
    """Number of recorded samples after the initial one (thinned + final)."""
    count = num_steps // record_every
    if num_steps % record_every:
        count += 1  # the final step is always recorded
    return count


class _Recorder:
    """Preallocated trajectory storage for the fixed-step integrators."""

    __slots__ = ("times", "states", "cursor", "record_every", "num_steps")

    def __init__(self, theta: np.ndarray, num_steps: int, record_every: int, start_time: float):
        samples = 1 + _record_count(num_steps, record_every)
        self.times = np.empty(samples, dtype=float)
        self.states = np.empty((samples,) + theta.shape, dtype=float)
        self.times[0] = start_time
        self.states[0] = theta
        self.cursor = 1
        self.record_every = record_every
        self.num_steps = num_steps

    def record(self, index: int, time: float, theta: np.ndarray) -> None:
        """Store ``theta`` if step ``index`` (0-based) is a recording point."""
        if (index + 1) % self.record_every == 0 or index == self.num_steps - 1:
            self.times[self.cursor] = time
            self.states[self.cursor] = theta
            self.cursor += 1

    def trajectory(self) -> Trajectory:
        return Trajectory(times=self.times, phases=self.states)


def _rk4_loop(
    rhs: RHS,
    theta: np.ndarray,
    num_steps: int,
    step: float,
    start_time: float,
    recorder: Optional[_Recorder],
) -> np.ndarray:
    """Advance ``theta`` through ``num_steps`` RK4 steps (in place).

    With the ``evaluate_into`` protocol the four stage derivatives live in
    integrator-owned buffers that are reused every step; plain callables fall
    back to the reference expressions, whose returned arrays are never
    mutated.  Both paths produce bit-identical states.
    """
    evaluate_into = getattr(rhs, "evaluate_into", None)
    time = start_time
    if evaluate_into is None:
        for index in range(num_steps):
            k1 = rhs(time, theta)
            k2 = rhs(time + step / 2.0, theta + step * k1 / 2.0)
            k3 = rhs(time + step / 2.0, theta + step * k2 / 2.0)
            k4 = rhs(time + step, theta + step * k3)
            theta += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            time = start_time + (index + 1) * step
            if recorder is not None:
                recorder.record(index, time, theta)
        return theta
    k1 = np.empty_like(theta)
    k2 = np.empty_like(theta)
    k3 = np.empty_like(theta)
    k4 = np.empty_like(theta)
    arg = np.empty_like(theta)
    for index in range(num_steps):
        evaluate_into(time, theta, k1)
        # arg = theta + step * k1 / 2.0, with the reference operation order
        # ((step * k) / 2.0) preserved exactly.
        np.multiply(k1, step, out=arg)
        np.divide(arg, 2.0, out=arg)
        np.add(theta, arg, out=arg)
        evaluate_into(time + step / 2.0, arg, k2)
        np.multiply(k2, step, out=arg)
        np.divide(arg, 2.0, out=arg)
        np.add(theta, arg, out=arg)
        evaluate_into(time + step / 2.0, arg, k3)
        np.multiply(k3, step, out=arg)
        np.add(theta, arg, out=arg)
        evaluate_into(time + step, arg, k4)
        # theta += (step / 6.0) * (((k1 + 2*k2) + 2*k3) + k4); the k buffers
        # are integrator-owned, so accumulating into them is safe.
        np.multiply(k2, 2.0, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(k3, 2.0, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, step / 6.0, out=k1)
        np.add(theta, k1, out=theta)
        time = start_time + (index + 1) * step
        if recorder is not None:
            recorder.record(index, time, theta)
    return theta


def _euler_maruyama_loop(
    rhs: RHS,
    theta: np.ndarray,
    num_steps: int,
    step: float,
    noise_scale: float,
    rng,
    start_time: float,
    recorder: Optional[_Recorder],
) -> np.ndarray:
    """Advance ``theta`` through ``num_steps`` Euler-Maruyama steps (in place).

    Noise blocks are pre-scaled by ``noise_scale`` once per block — the same
    per-element multiplication the reference loop performs per step, so the
    added values are bit-identical.
    """
    evaluate_into = getattr(rhs, "evaluate_into", None)
    drift_buf = np.empty_like(theta) if evaluate_into is not None else None
    scratch = np.empty_like(theta)
    block_steps = min(num_steps, max(1, _NOISE_BLOCK_ELEMENTS // max(1, theta.size)))
    noise_block: Optional[np.ndarray] = None
    time = start_time
    for index in range(num_steps):
        if evaluate_into is not None:
            drift = evaluate_into(time, theta, drift_buf)
        else:
            drift = rhs(time, theta)
        np.multiply(drift, step, out=scratch)
        np.add(theta, scratch, out=theta)
        if noise_scale > 0:
            offset = index % block_steps
            if offset == 0:
                # Refill the previous block's buffer: one allocation per call.
                noise_block = normal_noise_block(
                    rng, min(block_steps, num_steps - index), theta.shape, out=noise_block
                )
                # Pre-scale the whole block once (elementwise, so identical to
                # scaling each step's slice); scale through the contiguous
                # backing array when the block is a transposed view.
                backing = (
                    noise_block.base
                    if noise_block.base is not None and noise_block.base.size == noise_block.size
                    else noise_block
                )
                np.multiply(backing, noise_scale, out=backing)
            np.add(theta, noise_block[offset], out=theta)
        time = start_time + (index + 1) * step
        if recorder is not None:
            recorder.record(index, time, theta)
    return theta


def integrate_rk4(
    rhs: RHS,
    initial_phases: np.ndarray,
    duration: float,
    dt: float,
    start_time: float = 0.0,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step classical RK4 integration of ``d theta/dt = rhs(t, theta)``.

    ``record_every`` thins the stored trajectory (the final state is always
    recorded) to keep memory bounded on long waveform runs.  ``initial_phases``
    may be a flat ``(N,)`` vector or a batched ``(R, N)`` array, provided
    ``rhs`` handles the same shape.
    """
    if record_every < 1:
        raise SimulationError(f"record_every must be >= 1, got {record_every}")
    num_steps = _validate_step(duration, dt)
    step = duration / num_steps
    theta = np.array(initial_phases, dtype=float)
    recorder = _Recorder(theta, num_steps, record_every, start_time)
    _rk4_loop(rhs, theta, num_steps, step, start_time, recorder)
    return recorder.trajectory()


def rk4_final(
    rhs: RHS,
    initial_phases: np.ndarray,
    duration: float,
    dt: float,
    start_time: float = 0.0,
    dtype=float,
) -> np.ndarray:
    """Final-state RK4: like :func:`integrate_rk4` but records nothing.

    Returns the phase array after the last step; no intermediate state is
    ever materialized.  Bit-identical to ``integrate_rk4(...).final_phases``
    at the default ``dtype`` (float64); the throughput precision tier passes
    ``dtype=np.float32``, which threads through every ``out=``-based update.
    """
    num_steps = _validate_step(duration, dt)
    step = duration / num_steps
    theta = np.array(initial_phases, dtype=dtype)
    return _rk4_loop(rhs, theta, num_steps, step, start_time, None)


def integrate_euler_maruyama(
    rhs: RHS,
    initial_phases: np.ndarray,
    duration: float,
    dt: float,
    noise_amplitude: float = 0.0,
    seed: SeedLike = None,
    start_time: float = 0.0,
    record_every: int = 1,
) -> Trajectory:
    """Euler-Maruyama integration with additive white phase noise.

    ``noise_amplitude`` is the diffusion coefficient ``D`` (rad^2/s); each step
    adds a Gaussian increment of standard deviation ``sqrt(2 * D * dt)`` to
    every phase, modelling oscillator jitter during free-running intervals.

    ``initial_phases`` may be a flat ``(N,)`` vector or a batched ``(R, N)``
    array; in the batched case ``seed`` is typically a
    :class:`repro.rng.ReplicaRNG` so every replica consumes its own stream.
    Noise is prefetched in blocks of whole steps — numpy's chunked draws are
    bit-identical to per-step draws, so results do not depend on the blocking.
    """
    if record_every < 1:
        raise SimulationError(f"record_every must be >= 1, got {record_every}")
    if noise_amplitude < 0:
        raise SimulationError(f"noise_amplitude must be non-negative, got {noise_amplitude}")
    num_steps = _validate_step(duration, dt)
    step = duration / num_steps
    rng = make_rng(seed)
    theta = np.array(initial_phases, dtype=float)
    noise_scale = np.sqrt(2.0 * noise_amplitude * step)
    recorder = _Recorder(theta, num_steps, record_every, start_time)
    _euler_maruyama_loop(rhs, theta, num_steps, step, noise_scale, rng, start_time, recorder)
    return recorder.trajectory()


def euler_maruyama_final(
    rhs: RHS,
    initial_phases: np.ndarray,
    duration: float,
    dt: float,
    noise_amplitude: float = 0.0,
    seed: SeedLike = None,
    start_time: float = 0.0,
    dtype=float,
) -> np.ndarray:
    """Final-state Euler-Maruyama: like :func:`integrate_euler_maruyama`
    without trajectory recording.

    This is the solve hot path: the default (non-waveform) stage execution
    only ever reads the phases after the last step, so nothing else is kept.
    Consumes exactly the random stream of the recording variant and returns a
    bit-identical final phase array at the default ``dtype`` (float64).  The
    throughput precision tier passes ``dtype=np.float32`` (with a
    :class:`repro.rng.ThroughputRNG` as ``seed``), which keeps the state,
    drift and noise buffers single precision through every in-place update.
    """
    if noise_amplitude < 0:
        raise SimulationError(f"noise_amplitude must be non-negative, got {noise_amplitude}")
    num_steps = _validate_step(duration, dt)
    step = duration / num_steps
    rng = make_rng(seed)
    theta = np.array(initial_phases, dtype=dtype)
    noise_scale = np.sqrt(2.0 * noise_amplitude * step)
    return _euler_maruyama_loop(rhs, theta, num_steps, step, noise_scale, rng, start_time, None)
