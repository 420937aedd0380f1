"""Replica-batched phase dynamics: one RHS evaluation for R independent runs.

The MSROPM's repeated iterations are statistically independent replicas of the
same fabric, so their phase dynamics can be advanced in lock-step on a single
``(R, N)`` array.  What keeps the replicas from sharing one coupling matrix is
the partition gating: after stage 1 every replica has read out its own group
labels, so every replica conducts a different subset of the fabric's edges.

This module provides the coupling *operators* that close that gap, plus the
batched right-hand-side model that consumes them:

* :class:`FastSharedCoupling` — every replica sees the same sparse matrix
  (stage 1, or any stage where all replicas agree on the grouping): one
  direct ``csr_matvecs`` kernel call per evaluation through reusable buffers.
* :class:`FastBlockDiagonalCoupling` — per-replica gated matrices stacked into
  one block-diagonal CSR, assembled by :func:`gated_block_diagonal_csr` (one
  ``lexsort`` instead of a per-replica ``sparse.block_diag`` loop); one
  ``csr_matvec`` per field and evaluation.  Row-wise accumulation order
  matches the per-replica matvec exactly, so results are bit-identical to
  evaluating each replica on its own.
* :class:`GroupMaskedDenseCoupling` — a dense formulation that never
  materializes per-replica matrices: the gate ``[g_i == g_j]`` factors over
  group labels, turning the gated product into one dense GEMM per group
  (``coupling[r][i, j] = base[i, j] * [g_r[i] == g_r[j]]``).  Preferred for
  dense graphs, where CSR indirection wastes the hardware.

The stage executor obtains its operators from
:class:`repro.core.stages.CouplingPlan`, which builds them once per gating.

:class:`BatchedOscillatorModel` mirrors
:class:`repro.dynamics.kuramoto.CoupledOscillatorModel` (same physics, same
term structure) over ``(R, N)`` phase arrays and is consumed unchanged by the
fixed-step integrators; its ``evaluate_into`` method is the allocation-free
evaluation protocol the integrators prefer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import SimulationError

try:  # scipy's C kernels; the fast operators fall back to `@` without them
    from scipy.sparse import _sparsetools

    _csr_matvec = _sparsetools.csr_matvec
    _csr_matvecs = _sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - defensive
    _csr_matvec = None
    _csr_matvecs = None


@dataclass(frozen=True)
class ThroughputOptions:
    """Relaxations of the throughput precision tier, individually switchable.

    Each flag names one deliberate departure from the exact tier's
    bit-identity contract; the benchmark's phase breakdown measures them one
    at a time.  All three default to the configuration that measures fastest
    at paper scale on current numpy builds — notably ``fused_shil`` defaults
    *off* because the double-angle polynomial loses to a direct float32
    ``np.sin`` on the buffers the solver keeps hot (the defaults are static
    so cached results never depend on runtime measurements).
    """

    #: One batched PCG64 stream for all replicas with moment-matched uniform
    #: increments, instead of per-replica Gaussian streams.
    batched_rng: bool = True
    #: float32 phase state, trig, and CSR coupling kernels end to end.
    float32_state: bool = True
    #: Evaluate the SHIL term from the already-computed sin/cos fields via the
    #: double-angle identity instead of a second ``np.sin`` pass.
    fused_shil: bool = False


class CouplingOperator:
    """Applies the per-replica coupling matrices to a ``(R, N)`` field.

    ``apply(field)[r] == C_r @ field[r]`` where ``C_r`` is replica ``r``'s
    (possibly gated) coupling-rate matrix.
    """

    def apply(self, field: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def apply_pair(self, first: np.ndarray, second: np.ndarray):
        """Apply the operator to two fields at once (``(C@a, C@b)``).

        The RHS evaluation needs both ``C @ cos`` and ``C @ sin`` every step;
        implementations may fuse the two products into one multi-vector
        multiply to halve the per-step dispatch overhead.
        """
        return self.apply(first), self.apply(second)


class FastSharedCoupling(CouplingOperator):
    """All replicas share one sparse coupling matrix, applied by scipy's kernels.

    Each replica column accumulates in the stored-index order of the CSR
    rows, exactly like the single-replica matvec, so the result is
    bit-identical to evaluating each replica separately.  ``apply_pair``
    skips scipy's ``__matmul__`` dispatch (type sniffing, validation, fresh
    result allocation — more than the matvec itself at solve sizes): it keeps
    one ``(N, 2R)`` input and one output buffer alive and calls the
    ``csr_matvecs`` C kernel scipy itself calls.

    The arrays ``apply_pair`` returns are transposed views of the internal
    output buffer and are only valid until the next call (the RHS evaluation
    consumes them immediately).
    """

    def __init__(self, matrix: Union[np.ndarray, sparse.spmatrix], dtype=float) -> None:
        if not sparse.issparse(matrix):
            matrix = sparse.csr_matrix(np.asarray(matrix, dtype=float))
        self._dtype = np.dtype(dtype)
        self.matrix = matrix.tocsr().astype(self._dtype)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise SimulationError(f"coupling matrix must be square, got {self.matrix.shape}")
        self._pair_in: Optional[np.ndarray] = None
        self._pair_out: Optional[np.ndarray] = None

    def apply(self, field: np.ndarray) -> np.ndarray:
        return (self.matrix @ field.T).T

    def apply_pair(self, first: np.ndarray, second: np.ndarray):
        if _csr_matvecs is None:  # pragma: no cover - scipy without C kernels
            return super().apply_pair(first, second)
        replicas, num = first.shape
        if self._pair_in is None or self._pair_in.shape != (num, 2 * replicas):
            self._pair_in = np.empty((num, 2 * replicas), dtype=self._dtype)
            self._pair_out = np.empty((num, 2 * replicas), dtype=self._dtype)
        stacked, out = self._pair_in, self._pair_out
        stacked[:, :replicas] = first.T
        stacked[:, replicas:] = second.T
        out.fill(0.0)
        matrix = self.matrix
        _csr_matvecs(
            num,
            num,
            2 * replicas,
            matrix.indptr,
            matrix.indices,
            matrix.data,
            stacked.ravel(),
            out.ravel(),
        )
        return out[:, :replicas].T, out[:, replicas:].T


def gated_block_diagonal_csr(
    edge_index: np.ndarray,
    group_values: np.ndarray,
    num_oscillators: int,
    coupling_rate: float,
    dtype=float,
) -> sparse.csr_matrix:
    """Assemble the per-replica gated couplings as one block-diagonal CSR.

    Vectorized equivalent of building R gated matrices with
    :func:`repro.core.stages.partition_coupling_matrix` and stacking them with
    ``sparse.block_diag``: one boolean gate over the ``(R, E)`` edge table, one
    ``lexsort``, and a ``bincount`` cumulative sum produce the identical
    canonical CSR (row-major entries, column indices sorted within each row,
    every stored value ``coupling_rate``), so matvec accumulation order — and
    results — match the per-replica construction bit for bit.
    """
    if coupling_rate < 0:
        raise SimulationError("coupling_rate must be non-negative")
    group_values = np.asarray(group_values, dtype=int)
    if group_values.ndim != 2:
        raise SimulationError(
            f"group_values must be a (R, N) array, got shape {group_values.shape}"
        )
    num_replicas = group_values.shape[0]
    size = num_replicas * num_oscillators
    if edge_index.size == 0:
        return sparse.csr_matrix((size, size), dtype=dtype)
    source = edge_index[:, 0]
    target = edge_index[:, 1]
    same_group = group_values[:, source] == group_values[:, target]
    replica_index, edge_position = np.nonzero(same_group)
    if replica_index.size == 0:
        return sparse.csr_matrix((size, size), dtype=dtype)
    # Each conducting edge contributes both directed entries of its replica's
    # symmetric block.
    rows = np.concatenate([source[edge_position], target[edge_position]])
    cols = np.concatenate([target[edge_position], source[edge_position]])
    offsets = np.concatenate([replica_index, replica_index]) * num_oscillators
    rows = rows + offsets
    cols = cols + offsets
    order = np.lexsort((cols, rows))
    index_dtype = np.int32 if size < np.iinfo(np.int32).max else np.int64
    indices = cols[order].astype(index_dtype, copy=False)
    indptr = np.zeros(size + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    data = np.full(indices.shape[0], coupling_rate, dtype=dtype)
    return sparse.csr_matrix((data, indices, indptr), shape=(size, size))


class FastBlockDiagonalCoupling(CouplingOperator):
    """Per-replica gated matrices evaluated as one block-diagonal CSR matvec.

    Row-wise accumulation matches each replica's own matvec, so results are
    bit-identical to evaluating the replicas separately.  Built via
    :meth:`from_group_values` (no per-replica Python loop); ``apply_pair``
    drives the ``csr_matvec`` kernel once per field through reusable output
    buffers, returning reshaped views that are valid until the next call.
    """

    def __init__(
        self, matrix: sparse.csr_matrix, num_replicas: int, num_oscillators: int, dtype=float
    ) -> None:
        self._dtype = np.dtype(dtype)
        self.matrix = matrix.tocsr().astype(self._dtype)
        if self.matrix.shape != (num_replicas * num_oscillators,) * 2:
            raise SimulationError(
                f"block-diagonal matrix of shape {self.matrix.shape} does not hold "
                f"{num_replicas} blocks of {num_oscillators} oscillators"
            )
        self.num_replicas = num_replicas
        self.num_oscillators = num_oscillators
        self._out_first: Optional[np.ndarray] = None
        self._out_second: Optional[np.ndarray] = None

    @classmethod
    def from_group_values(
        cls,
        edge_index: np.ndarray,
        group_values: np.ndarray,
        num_oscillators: int,
        coupling_rate: float,
        dtype=float,
    ) -> "FastBlockDiagonalCoupling":
        """Build the operator directly from the gating table (no block loop)."""
        matrix = gated_block_diagonal_csr(
            edge_index, group_values, num_oscillators, coupling_rate, dtype=dtype
        )
        return cls(matrix, group_values.shape[0], num_oscillators, dtype=dtype)

    def apply(self, field: np.ndarray) -> np.ndarray:
        replicas, num = field.shape
        if replicas != self.num_replicas or num != self.num_oscillators:
            raise SimulationError(
                f"expected field of shape ({self.num_replicas}, {self.num_oscillators}), got {field.shape}"
            )
        return (self.matrix @ field.reshape(replicas * num)).reshape(replicas, num)

    def apply_pair(self, first: np.ndarray, second: np.ndarray):
        if _csr_matvec is None:  # pragma: no cover - scipy without C kernels
            return super().apply_pair(first, second)
        replicas, num = first.shape
        size = replicas * num
        if self._out_first is None or self._out_first.size != size:
            self._out_first = np.empty(size, dtype=self._dtype)
            self._out_second = np.empty(size, dtype=self._dtype)
        matrix = self.matrix
        out_first, out_second = self._out_first, self._out_second
        out_first.fill(0.0)
        out_second.fill(0.0)
        # One single-vector kernel call per field: per-row accumulation is
        # identical to the reference multivector product (columns of a
        # multivector matvec are independent).
        _csr_matvec(
            size,
            size,
            matrix.indptr,
            matrix.indices,
            matrix.data,
            np.ascontiguousarray(first, dtype=self._dtype).reshape(size),
            out_first,
        )
        _csr_matvec(
            size,
            size,
            matrix.indptr,
            matrix.indices,
            matrix.data,
            np.ascontiguousarray(second, dtype=self._dtype).reshape(size),
            out_second,
        )
        return out_first.reshape(replicas, num), out_second.reshape(replicas, num)


class GroupMaskedDenseCoupling(CouplingOperator):
    """Dense shared base matrix with per-replica group gating.

    Replica ``r`` conducts edge ``(i, j)`` only when ``groups[r, i] ==
    groups[r, j]``.  Since the gate factors as ``sum_c [g_i == c] [g_j == c]``,
    the gated product reduces to one dense GEMM per group label over masked
    fields — O(groups) GEMMs of ``(N, N) x (N, R)`` instead of R gated
    matrices.
    """

    def __init__(self, base: np.ndarray, groups: Optional[np.ndarray] = None) -> None:
        self.base = np.asarray(base, dtype=float)
        if self.base.ndim != 2 or self.base.shape[0] != self.base.shape[1]:
            raise SimulationError(f"base matrix must be square, got shape {self.base.shape}")
        if not np.allclose(self.base, self.base.T):
            raise SimulationError("base coupling matrix must be symmetric")
        if groups is None:
            self.masks = None
        else:
            groups = np.asarray(groups, dtype=int)
            if groups.ndim != 2 or groups.shape[1] != self.base.shape[0]:
                raise SimulationError(
                    f"groups must have shape (R, {self.base.shape[0]}), got {groups.shape}"
                )
            labels = np.unique(groups)
            if labels.size <= 1:
                # Every oscillator in every replica shares one group: ungated.
                self.masks = None
            else:
                self.masks = [(groups == label).astype(float) for label in labels]

    def apply(self, field: np.ndarray) -> np.ndarray:
        if self.masks is None:
            return field @ self.base
        out = np.zeros_like(field)
        for mask in self.masks:
            out += mask * ((field * mask) @ self.base)
        return out


@dataclass
class BatchedOscillatorModel:
    """Right-hand side of the coupled, SHIL-injected dynamics over a batch.

    The physics is identical to
    :class:`repro.dynamics.kuramoto.CoupledOscillatorModel`; the coupling term
    is delegated to a :class:`CouplingOperator` so each replica can carry its
    own partition-gated matrix, and all remaining terms broadcast over the
    leading replica axis.

    Parameters
    ----------
    coupling:
        Operator computing ``C_r @ field_r`` for every replica.
    num_oscillators:
        Oscillators per replica (for shape validation).
    shil_strength:
        Scalar or per-oscillator SHIL pinning rates (radians/second).
    shil_offset:
        Lock-grid offsets: scalar, ``(N,)`` shared, or ``(R, N)`` per replica.
    shil_order:
        Sub-harmonic order ``m`` (2 for the MSROPM).
    frequency_detuning:
        Optional ``(N,)`` static process-variation offsets, shared by all
        replicas (the paper's fabric is one piece of silicon).
    shil_ramp / coupling_ramp:
        Optional time ramps in [0, 1], exactly as in the sequential model.
    """

    coupling: CouplingOperator
    num_oscillators: int
    shil_strength: Union[float, np.ndarray] = 0.0
    shil_offset: Union[float, np.ndarray] = 0.0
    shil_order: int = 2
    frequency_detuning: Optional[np.ndarray] = None
    shil_ramp: Optional[Callable[[float], float]] = None
    coupling_ramp: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.num_oscillators < 1:
            raise SimulationError("num_oscillators must be positive")
        if self.shil_order < 2:
            raise SimulationError(f"shil_order must be at least 2, got {self.shil_order}")
        self._shil_strength = np.asarray(self.shil_strength, dtype=float)
        if np.any(self._shil_strength < 0):
            raise SimulationError("shil_strength must be non-negative")
        self._shil_offset = np.asarray(self.shil_offset, dtype=float)
        self._has_shil = bool(np.any(self._shil_strength > 0))
        if self.frequency_detuning is None:
            self._detuning = np.zeros(self.num_oscillators)
        else:
            self._detuning = np.asarray(self.frequency_detuning, dtype=float)
            if self._detuning.shape != (self.num_oscillators,):
                raise SimulationError(
                    f"frequency_detuning must have shape ({self.num_oscillators},), "
                    f"got {self._detuning.shape}"
                )
        self._has_detuning = bool(np.any(self._detuning != 0.0))

    def coupling_term(self, phases: np.ndarray) -> np.ndarray:
        """Return ``sum_j w_ij sin(theta_i - theta_j)`` per replica and oscillator.

        The arithmetic is identical to the sequential model's
        (``sin * C@cos - cos * C@sin``); the trig buffers are reused in place
        once the products are formed, which only removes temporaries, never
        changes a value.
        """
        sin_theta = np.sin(phases)
        cos_theta = np.cos(phases)
        coupled_cos, coupled_sin = self.coupling.apply_pair(cos_theta, sin_theta)
        np.multiply(sin_theta, coupled_cos, out=sin_theta)
        np.multiply(cos_theta, coupled_sin, out=cos_theta)
        np.subtract(sin_theta, cos_theta, out=sin_theta)
        return sin_theta

    def shil_term(self, phases: np.ndarray) -> np.ndarray:
        """Return the SHIL restoring term ``-K_s sin(m (theta - phi))``."""
        relative = phases - self._shil_offset
        np.multiply(relative, self.shil_order, out=relative)
        np.sin(relative, out=relative)
        np.multiply(relative, -self._shil_strength, out=relative)
        return relative

    def __call__(self, time: float, phases: np.ndarray) -> np.ndarray:
        """Evaluate ``d theta / dt`` for the batched phase array ``phases``."""
        phases = np.asarray(phases, dtype=float)
        if phases.ndim != 2 or phases.shape[1] != self.num_oscillators:
            raise SimulationError(
                f"expected batched phases of shape (R, {self.num_oscillators}), got {phases.shape}"
            )
        coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
        shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        # Multiplying by a scale of exactly 1.0 and adding an all-zero detuning
        # are bit-exact identities, so the fast paths below cannot change
        # results relative to the sequential model.
        rate = self.coupling_term(phases)
        if coupling_scale != 1.0:
            np.multiply(rate, coupling_scale, out=rate)
        if shil_scale != 0.0 and self._has_shil:
            shil = self.shil_term(phases)
            if shil_scale != 1.0:
                np.multiply(shil, shil_scale, out=shil)
            np.add(rate, shil, out=rate)
        if self._has_detuning:
            np.add(rate, self._detuning, out=rate)
        return rate

    # ------------------------------------------------------------------
    def _scratch(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable work buffers of ``shape`` (cos field, SHIL term)."""
        buffers = self.__dict__.get("_scratch_buffers")
        if buffers is None or buffers[0].shape != shape:
            buffers = (np.empty(shape, dtype=float), np.empty(shape, dtype=float))
            self._scratch_buffers = buffers
        return buffers

    def evaluate_into(self, time: float, phases: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free mirror of :meth:`__call__`: write the rate into ``out``.

        Same operations in the same order as ``__call__`` (the trig fields and
        the SHIL term live in model-owned scratch buffers instead of fresh
        arrays), so every output bit matches.  ``out`` must not alias
        ``phases``; the integrators own ``out`` and pass a dedicated buffer.
        """
        if phases.shape != out.shape or phases.ndim != 2 or phases.shape[1] != self.num_oscillators:
            raise SimulationError(
                f"expected matching batched phases/out of shape (R, {self.num_oscillators}), "
                f"got {phases.shape} and {out.shape}"
            )
        coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
        shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        cos_field, term_buf = self._scratch(phases.shape)
        np.sin(phases, out=out)
        np.cos(phases, out=cos_field)
        coupled_cos, coupled_sin = self.coupling.apply_pair(cos_field, out)
        np.multiply(out, coupled_cos, out=out)
        np.multiply(cos_field, coupled_sin, out=cos_field)
        np.subtract(out, cos_field, out=out)
        if coupling_scale != 1.0:
            np.multiply(out, coupling_scale, out=out)
        if shil_scale != 0.0 and self._has_shil:
            np.subtract(phases, self._shil_offset, out=term_buf)
            np.multiply(term_buf, self.shil_order, out=term_buf)
            np.sin(term_buf, out=term_buf)
            np.multiply(term_buf, -self._shil_strength, out=term_buf)
            if shil_scale != 1.0:
                np.multiply(term_buf, shil_scale, out=term_buf)
            np.add(out, term_buf, out=out)
        if self._has_detuning:
            np.add(out, self._detuning, out=out)
        return out


@dataclass
class ThroughputOscillatorModel(BatchedOscillatorModel):
    """Reduced-precision batched RHS for the throughput tier.

    Same physics and term structure as :class:`BatchedOscillatorModel`, with
    the deliberate relaxations of :class:`ThroughputOptions` applied:

    * all scratch buffers, SHIL coefficients and the detuning vector live in
      ``dtype`` (float32 by default), so the expensive per-step ``sin``/``cos``
      evaluations and the CSR kernel run in single precision;
    * when ``fused_shil`` is set (and ``shil_order == 2``), the SHIL term is
      computed from the sin/cos fields already evaluated for the coupling
      term via the double-angle identity
      ``-K sin(2(theta - phi)) = A (s c) + B s^2 + C`` with
      ``A = -2 K cos(2 phi)``, ``B = -2 K sin(2 phi)``, ``C = -B / 2``,
      skipping the second ``np.sin`` pass entirely.

    The model is used only behind ``precision="throughput"``; the exact tier
    never constructs it.
    """

    fused_shil: bool = False
    dtype: np.dtype = np.float32

    def __post_init__(self) -> None:
        super().__post_init__()
        self.dtype = np.dtype(self.dtype)
        self._shil_strength = self._shil_strength.astype(self.dtype)
        self._shil_offset = self._shil_offset.astype(self.dtype)
        self._detuning = self._detuning.astype(self.dtype)
        # The fused form needs the double-angle identity, which is specific to
        # shil_order == 2 (the MSROPM's order); fall back silently otherwise.
        self._use_fused = bool(self.fused_shil) and self.shil_order == 2 and self._has_shil
        if self._use_fused:
            # Coefficients in float64 first, cast once: the identity is exact,
            # so the only error is the final rounding of each coefficient.
            strength = np.asarray(self.shil_strength, dtype=float)
            offset = np.asarray(self.shil_offset, dtype=float)
            b_coeff = -2.0 * strength * np.sin(2.0 * offset)
            self._fused_a = np.asarray(-2.0 * strength * np.cos(2.0 * offset), dtype=self.dtype)
            self._fused_b = np.asarray(b_coeff, dtype=self.dtype)
            self._fused_c = np.asarray(-0.5 * b_coeff, dtype=self.dtype)

    def _scratch(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable ``dtype`` work buffers (cos field, SHIL term)."""
        buffers = self.__dict__.get("_scratch_buffers")
        if buffers is None or buffers[0].shape != shape:
            buffers = (np.empty(shape, dtype=self.dtype), np.empty(shape, dtype=self.dtype))
            self._scratch_buffers = buffers
        return buffers

    def _fused_scratch(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Third work buffer of the fused-SHIL evaluation."""
        buffer = self.__dict__.get("_fused_buffer")
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=self.dtype)
            self._fused_buffer = buffer
        return buffer

    def evaluate_into(self, time: float, phases: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the rate into ``out`` using the tier's relaxed arithmetic."""
        if not self._use_fused:
            return super().evaluate_into(time, phases, out)
        if phases.shape != out.shape or phases.ndim != 2 or phases.shape[1] != self.num_oscillators:
            raise SimulationError(
                f"expected matching batched phases/out of shape (R, {self.num_oscillators}), "
                f"got {phases.shape} and {out.shape}"
            )
        coupling_scale = self.coupling_ramp(time) if self.coupling_ramp is not None else 1.0
        shil_scale = self.shil_ramp(time) if self.shil_ramp is not None else 1.0
        cos_field, term_buf = self._scratch(phases.shape)
        fused_buf = self._fused_scratch(phases.shape)
        np.sin(phases, out=out)
        np.cos(phases, out=cos_field)
        # SHIL from the double-angle identity, before the coupling products
        # overwrite the sin/cos fields: term = s * (A c + B s) + C.
        if shil_scale != 0.0:
            np.multiply(cos_field, self._fused_a, out=term_buf)
            np.multiply(out, self._fused_b, out=fused_buf)
            np.add(term_buf, fused_buf, out=term_buf)
            np.multiply(term_buf, out, out=term_buf)
            np.add(term_buf, self._fused_c, out=term_buf)
        coupled_cos, coupled_sin = self.coupling.apply_pair(cos_field, out)
        np.multiply(out, coupled_cos, out=out)
        np.multiply(cos_field, coupled_sin, out=cos_field)
        np.subtract(out, cos_field, out=out)
        if coupling_scale != 1.0:
            np.multiply(out, coupling_scale, out=out)
        if shil_scale != 0.0:
            if shil_scale != 1.0:
                np.multiply(term_buf, shil_scale, out=term_buf)
            np.add(out, term_buf, out=out)
        if self._has_detuning:
            np.add(out, self._detuning, out=out)
        return out
