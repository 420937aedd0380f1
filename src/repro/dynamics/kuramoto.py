# repro-lint: disable=unreachable-module -- the scalar reference model: perfbench's
# traced layers wrap CoupledOscillatorModel.evaluate_into, and the integrator
# tests check integrate_euler_maruyama against it.
"""Generalized Kuramoto phase dynamics of coupled, SHIL-injected ROSCs.

In the rotating frame of the common oscillation frequency, the phase of each
injection-locked ring oscillator evolves as a gradient flow on the system's
Lyapunov function (the vector-Potts energy plus the SHIL pinning potential)::

    d theta_i / dt = + K_c * sum_j  w_ij * sin(theta_i - theta_j)
                     - K_s,i * sin( m * (theta_i - phi_i) )
                     + noise

* The first term is the B2B-inverter coupling.  The B2B medium is inverting,
  so coupled oscillators repel in phase — the ``+`` sign drives neighbouring
  phases apart, which is gradient descent on ``E_c = K_c * sum w_ij cos(theta_i - theta_j)``
  (the antiferromagnetic / max-cut energy, Eq. 2 with negative J).
* The second term is sub-harmonic injection locking of order ``m`` (2 in the
  MSROPM): it pins phases to the grid ``phi_i + 2*pi*k/m`` and is gradient
  descent on ``E_s = -(K_s/m) * sum cos(m * (theta_i - phi_i))``.
* The noise term models oscillator jitter and is handled by the
  Euler-Maruyama integrator.

Coupling strengths, SHIL strengths and offsets are all per-oscillator arrays
so the machine can gate couplings (P_EN), select SHIL 1 vs SHIL 2 (SHIL_SEL)
and disable injection (SHIL_EN) by simply rebuilding the model between stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy import sparse

from repro.exceptions import SimulationError
from repro.ising.vector_potts import wrap_phase


@dataclass
class CoupledOscillatorModel:
    """Right-hand side of the coupled, SHIL-injected phase dynamics.

    Parameters
    ----------
    coupling_matrix:
        Symmetric, non-negative matrix of effective coupling rates
        (radians/second).  Entry ``(i, j)`` is the phase-repulsion rate edge
        ``(i, j)`` exerts; gated-off couplings are simply zero.
    shil_strength:
        Scalar or per-oscillator array of SHIL pinning rates (radians/second).
        Zero disables injection (``SHIL_EN`` low).
    shil_offset:
        Scalar or per-oscillator array of fundamental lock-grid offsets
        (radians): 0 for SHIL 1, pi/2 for SHIL 2.
    shil_order:
        Sub-harmonic order ``m`` (2 for the MSROPM, 3 for the 3-SHIL ROPM baseline).
    frequency_detuning:
        Optional per-oscillator free-running frequency offsets (radians/second)
        modelling process variation; defaults to zero (identical oscillators).
    shil_ramp:
        Optional callable ``ramp(t) -> float`` in [0, 1] scaling the SHIL
        strength over time (a soft turn-on improves locking fidelity).
    coupling_ramp:
        Optional callable ``ramp(t) -> float`` scaling the coupling strengths.
    """

    coupling_matrix: Union[np.ndarray, sparse.spmatrix]
    shil_strength: Union[float, np.ndarray] = 0.0
    shil_offset: Union[float, np.ndarray] = 0.0
    shil_order: int = 2
    frequency_detuning: Optional[np.ndarray] = None
    shil_ramp: Optional[Callable[[float], float]] = None
    coupling_ramp: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        matrix = self.coupling_matrix
        if sparse.issparse(matrix):
            self._coupling = matrix.tocsr().astype(float)
            shape = self._coupling.shape
        else:
            self._coupling = sparse.csr_matrix(np.asarray(matrix, dtype=float))
            shape = self._coupling.shape
        if shape[0] != shape[1]:
            raise SimulationError(f"coupling matrix must be square, got shape {shape}")
        self._num = shape[0]
        if (abs(self._coupling - self._coupling.T) > 1e-12).nnz != 0:
            raise SimulationError("coupling matrix must be symmetric")
        if self._coupling.nnz and self._coupling.data.min() < 0:
            raise SimulationError(
                "coupling matrix entries must be non-negative rates (sign handled by the model)"
            )
        if self.shil_order < 2:
            raise SimulationError(f"shil_order must be at least 2, got {self.shil_order}")
        self._shil_strength = self._broadcast(self.shil_strength, "shil_strength")
        if np.any(self._shil_strength < 0):
            raise SimulationError("shil_strength must be non-negative")
        self._shil_offset = self._broadcast(self.shil_offset, "shil_offset")
        self._has_shil = bool(np.any(self._shil_strength > 0))
        if self.frequency_detuning is None:
            self._detuning = np.zeros(self._num)
        else:
            self._detuning = np.asarray(self.frequency_detuning, dtype=float)
            if self._detuning.shape != (self._num,):
                raise SimulationError(
                    f"frequency_detuning must have shape ({self._num},), got {self._detuning.shape}"
                )

    def _broadcast(self, value: Union[float, np.ndarray], name: str) -> np.ndarray:
        array = np.asarray(value, dtype=float)
        if array.ndim == 0:
            return np.full(self._num, float(array))
        if array.shape != (self._num,):
            raise SimulationError(f"{name} must be scalar or shape ({self._num},), got {array.shape}")
        return array.copy()

    # ------------------------------------------------------------------
    @property
    def num_oscillators(self) -> int:
        """Number of oscillators in the model."""
        return self._num

    def coupling_term(self, phases: np.ndarray) -> np.ndarray:
        """Return ``sum_j w_ij sin(theta_i - theta_j)`` for every oscillator.

        Computed without forming the dense phase-difference matrix:
        ``sin(a - b) = sin(a) cos(b) - cos(a) sin(b)`` lets the sum factor into
        two sparse matrix-vector products.  ``phases`` may be ``(N,)`` or a
        batch ``(R, N)``; the batched form multiplies all replicas through the
        shared matrix at once, and each replica column accumulates in the same
        order as the single-vector product, so per-replica results are
        bit-identical to R separate evaluations.
        """
        sin_theta = np.sin(phases)
        cos_theta = np.cos(phases)
        if phases.ndim == 2:
            return (
                sin_theta * (self._coupling @ cos_theta.T).T
                - cos_theta * (self._coupling @ sin_theta.T).T
            )
        return sin_theta * (self._coupling @ cos_theta) - cos_theta * (self._coupling @ sin_theta)

    def shil_term(self, phases: np.ndarray) -> np.ndarray:
        """Return the SHIL restoring term ``-K_s sin(m (theta - phi))``."""
        return -self._shil_strength * np.sin(self.shil_order * (phases - self._shil_offset))

    def __call__(self, time: float, phases: np.ndarray) -> np.ndarray:
        """Evaluate ``d theta / dt`` for ``(N,)`` or batched ``(R, N)`` phases."""
        phases = np.asarray(phases, dtype=float)
        if phases.ndim not in (1, 2) or phases.shape[-1] != self._num:
            raise SimulationError(f"expected {self._num} phases, got shape {phases.shape}")
        coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
        shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        rate = coupling_scale * self.coupling_term(phases)
        if shil_scale != 0.0 and self._has_shil:
            rate = rate + shil_scale * self.shil_term(phases)
        return rate + self._detuning

    def evaluate_into(self, time: float, phases: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-light mirror of :meth:`__call__`: write the rate into ``out``.

        Performs the same floating-point operations in the same order through
        model-owned scratch buffers (a scale of exactly 1.0 is skipped, which
        is a bit-exact identity), so results match ``__call__`` bitwise.
        ``out`` must not alias ``phases``.
        """
        if phases.ndim != 1:
            # Batched inputs take the reference expressions; the solvers
            # integrate batches through BatchedOscillatorModel instead.
            np.copyto(out, self(time, phases))
            return out
        if phases.shape != (self._num,) or out.shape != (self._num,):
            raise SimulationError(
                f"expected matching phases/out of shape ({self._num},), "
                f"got {phases.shape} and {out.shape}"
            )
        coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
        shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        buffers = self.__dict__.get("_scratch_buffers")
        if buffers is None:
            buffers = (np.empty(self._num, dtype=float), np.empty(self._num, dtype=float))
            self._scratch_buffers = buffers
        sin_field, work = buffers
        np.sin(phases, out=sin_field)
        np.cos(phases, out=work)
        coupled_cos = self._coupling @ work
        coupled_sin = self._coupling @ sin_field
        np.multiply(sin_field, coupled_cos, out=out)
        np.multiply(work, coupled_sin, out=work)
        np.subtract(out, work, out=out)
        if coupling_scale != 1.0:
            np.multiply(out, coupling_scale, out=out)
        if shil_scale != 0.0 and self._has_shil:
            np.subtract(phases, self._shil_offset, out=work)
            np.multiply(work, self.shil_order, out=work)
            np.sin(work, out=work)
            np.multiply(work, -self._shil_strength, out=work)
            if shil_scale != 1.0:
                np.multiply(work, shil_scale, out=work)
            np.add(out, work, out=out)
        # __call__ always adds the detuning array (zeros when absent); adding
        # the zeros unconditionally keeps even signed zeros identical.
        np.add(out, self._detuning, out=out)
        return out

    # ------------------------------------------------------------------
    def energy(self, phases: np.ndarray, time: Optional[float] = None) -> float:
        """Evaluate the Lyapunov function the (noise-free) flow descends.

        ``E(theta) = sum_{i<j} w_ij cos(theta_i - theta_j)
        - sum_i (K_s,i / m) cos(m (theta_i - phi_i))``

        scaled by the instantaneous ramps when ``time`` is given.  Along a
        noise-free trajectory this quantity is non-increasing (for frozen
        ramps), which the property-based tests verify.
        """
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (self._num,):
            raise SimulationError(f"expected {self._num} phases, got shape {phases.shape}")
        coupling_scale = 1.0
        shil_scale = 1.0
        if time is not None:
            coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
            shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        rows, cols = self._coupling.nonzero()
        mask = rows < cols
        pair_energy = 0.0
        if np.any(mask):
            weights = np.asarray(self._coupling[rows[mask], cols[mask]]).ravel()
            pair_energy = float(np.sum(weights * np.cos(phases[rows[mask]] - phases[cols[mask]])))
        shil_energy = -float(
            np.sum(self._shil_strength / self.shil_order * np.cos(self.shil_order * (phases - self._shil_offset)))
        )
        return coupling_scale * pair_energy + shil_scale * shil_energy

    def order_parameter(self, phases: np.ndarray, harmonic: int = 1) -> float:
        """Return the Kuramoto order parameter ``|<exp(i * harmonic * theta)>|``.

        The first harmonic measures global in-phase synchrony; the ``m``-th
        harmonic measures how tightly phases cluster on the m-point SHIL grid
        (1.0 = perfectly binarized/discretized).
        """
        phases = np.asarray(phases, dtype=float)
        if phases.size == 0:
            return 0.0
        return float(np.abs(np.mean(np.exp(1j * harmonic * phases))))


def uniform_coupling_matrix(adjacency: Union[np.ndarray, sparse.spmatrix], rate: float) -> sparse.csr_matrix:
    """Scale a 0/1 adjacency matrix into a uniform coupling-rate matrix."""
    if rate < 0:
        raise SimulationError(f"rate must be non-negative, got {rate}")
    if sparse.issparse(adjacency):
        return (adjacency.tocsr() * rate).astype(float)
    return sparse.csr_matrix(np.asarray(adjacency, dtype=float) * rate)
