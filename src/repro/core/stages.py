"""Stage execution: turning the control schedule into phase-dynamics runs.

Each binary stage of the MSROPM consists of three intervals (Fig. 3):

1. *initialization* — couplings and SHIL off; phases either start random
   (stage 1) or keep their previous values plus a little jitter (later stages,
   the compute-in-memory property),
2. *annealing* — couplings on (restricted to the current partition), SHIL off;
   the coupled oscillators self-anneal towards a low-energy phase pattern,
3. *SHIL lock* — the per-partition SHIL is injected (ramped up) and binarizes
   the phases onto the partition's lock grid; at the end the phases are read
   out.

:class:`StageExecutor` runs the three intervals on a batch of replicas, with
the coupling operators precompiled by a :class:`CouplingPlan` from the stage's
group labels; :class:`repro.core.machine.MSROPM` strings the stages together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import StageError
from repro.core.config import MSROPMConfig
from repro.dynamics.batched import (
    BatchedOscillatorModel,
    CouplingOperator,
    FastBlockDiagonalCoupling,
    FastSharedCoupling,
    ThroughputOscillatorModel,
    band_offsets,
)
from repro.dynamics.integrators import (
    Trajectory,
    euler_maruyama_final,
    integrate_euler_maruyama,
)
from repro.rng import make_rng


def group_offsets(group_values: np.ndarray, stage_index: int) -> np.ndarray:
    """Return the per-oscillator SHIL lock-grid offsets for ``stage_index``.

    A node whose accumulated group value (the phase index read out after the
    previous stages) is ``v`` receives a SHIL whose fundamental lock grid is
    offset by ``v * 2*pi / 2**stage_index``; stage 1 therefore uses offset 0
    everywhere (SHIL 1) and stage 2 uses 0 or pi/2 (SHIL 1 / SHIL 2), exactly
    the paper's phase-shifted SHIL pair.

    ``group_values`` may be ``(N,)`` or a batched ``(R, N)`` array; the
    offsets keep the same shape.
    """
    if stage_index < 1:
        raise StageError(f"stage_index must be >= 1, got {stage_index}")
    group_values = np.asarray(group_values, dtype=int)
    max_group = 2 ** (stage_index - 1)
    if group_values.size and (group_values.min() < 0 or group_values.max() >= max_group):
        raise StageError(
            f"group values for stage {stage_index} must lie in [0, {max_group}), "
            f"got range [{group_values.min()}, {group_values.max()}]"
        )
    return group_values * (2.0 * np.pi / (2 ** stage_index))


def partition_coupling_matrix(
    edge_index: np.ndarray,
    group_values: np.ndarray,
    num_oscillators: int,
    coupling_rate: float,
) -> sparse.csr_matrix:
    """Return the coupling-rate matrix with cross-partition edges gated off.

    ``edge_index`` is the ``(E, 2)`` array of edges in node-index space; an
    edge is conducting only when both endpoints share the same group value
    (the ``P_EN`` gating derived from the earlier stage read-outs).
    """
    if coupling_rate < 0:
        raise StageError("coupling_rate must be non-negative")
    group_values = np.asarray(group_values, dtype=int)
    if edge_index.size == 0:
        return sparse.csr_matrix((num_oscillators, num_oscillators))
    same_group = group_values[edge_index[:, 0]] == group_values[edge_index[:, 1]]
    active = edge_index[same_group]
    if active.size == 0:
        return sparse.csr_matrix((num_oscillators, num_oscillators))
    rows = np.concatenate([active[:, 0], active[:, 1]])
    cols = np.concatenate([active[:, 1], active[:, 0]])
    vals = np.full(rows.shape[0], coupling_rate, dtype=float)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(num_oscillators, num_oscillators))


def binarize_against_offsets(phases: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Return the per-oscillator stage bit: 0 if locked near its offset, 1 if near offset + pi."""
    phases = np.asarray(phases, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    relative = np.mod(phases - offsets, 2.0 * np.pi)
    return ((relative > np.pi / 2.0) & (relative <= 3.0 * np.pi / 2.0)).astype(int)


#: Fewest block-diagonal rows (``R * N``) for which the stage-2 operator of a
#: banded graph runs the DIA kernel.  Below it CSR's short per-row add chains
#: stay cache-resident and DIA's gated-off slots cost more than they save: on
#: a 7x7 board with 40 replicas (1,960 rows) DIA was about 10% slower, at
#: 3,920 rows 15% faster, and at 84,640 rows (46x46) 3-4x faster.
DIA_MIN_ROWS = 3000


class CouplingPlan:
    """Precompiled coupling state for one (problem, config) pair.

    Batched stage execution needs a coupling operator per stage; building it
    from scratch on every stage entry (a fresh CSR for stage 1, an R-block
    Python loop through ``sparse.block_diag`` for stage 2) used to dominate
    the non-integration time of a solve.  The plan is built once per executor
    — and, via the machine-level executor cache, once per machine — and hands
    out precompiled operators:

    * the ungated (uniform-grouping) shared CSR is built once and reused by
      every solve's stage 1, buffers included;
    * replica-dependent stage-2 gatings are assembled by the vectorized
      :func:`repro.dynamics.batched.gated_block_diagonal_csr` constructor
      instead of a per-replica loop.

    Every operator the plan returns holds the canonical CSR that
    :func:`partition_coupling_matrix` builds for each replica, so each
    replica's products are bit-identical to its own gated matvec.  Whether
    the graph is banded is decided once here, from the edge table
    (:func:`repro.dynamics.batched.band_offsets`): on a banded graph (a King's
    board) a stage-2 operator of at least :data:`DIA_MIN_ROWS` rows applies
    the same entries by scipy's DIA kernel, whose ascending-diagonal sweep
    keeps CSR's per-row accumulation order and so its bits.  Stage 1's
    shared operator stays CSR, where the multi-vector ``csr_matvecs`` kernel
    is the faster one.
    """

    def __init__(
        self,
        edge_index: np.ndarray,
        num_oscillators: int,
        coupling_rate: float,
        dtype=float,
    ) -> None:
        self.edge_index = edge_index
        self.num_oscillators = num_oscillators
        self.coupling_rate = coupling_rate
        self.dtype = np.dtype(dtype)
        self.band = band_offsets(edge_index, num_oscillators)
        self._uniform_shared: Optional[FastSharedCoupling] = None

    def operator(self, group_values: np.ndarray) -> CouplingOperator:
        """The precompiled coupling operator for one stage's gating table."""
        first_row = group_values[0]
        if np.all(group_values == first_row):
            if first_row.size == 0 or np.all(first_row == first_row[0]):
                # Uniform grouping gates nothing, for any common value: one
                # shared ungated CSR serves every solve's stage 1.
                if self._uniform_shared is None:
                    self._uniform_shared = FastSharedCoupling(
                        partition_coupling_matrix(
                            self.edge_index,
                            first_row,
                            self.num_oscillators,
                            self.coupling_rate,
                        ),
                        dtype=self.dtype,
                    )
                return self._uniform_shared
            return FastSharedCoupling(
                partition_coupling_matrix(
                    self.edge_index, first_row, self.num_oscillators, self.coupling_rate
                ),
                dtype=self.dtype,
            )
        dia = self.band is not None and group_values.size >= DIA_MIN_ROWS
        return FastBlockDiagonalCoupling.from_group_values(
            self.edge_index, group_values, self.num_oscillators, self.coupling_rate,
            dtype=self.dtype, offsets=self.band if dia else None,
        )


@dataclass
class StageExecutor:
    """Runs the three intervals of one binary stage on a batch of replicas.

    Every caller goes through the one stage body of :meth:`run_stage` on a
    ``(R, N)`` phase array: :class:`repro.core.engine.BatchedEngine` with all
    iterations of a solve, :meth:`repro.core.machine.MSROPM.run_iteration` at
    R=1, and the ROIM baseline.  Operators are always the sparse ones of
    :class:`CouplingPlan`.

    Parameters
    ----------
    config:
        Machine configuration (strengths, timing, integrator settings).
    edge_index:
        ``(E, 2)`` edge array of the mapped problem in node-index space.
    num_oscillators:
        Number of oscillators (problem nodes).
    collect_trajectory:
        When ``True`` every integrator step is recorded: the initialization
        interval is integrated with a free model (no coupling, no SHIL, no
        detuning) and all intervals run through
        :func:`repro.dynamics.integrators.integrate_euler_maruyama`, so
        waveforms can be reconstructed.  When ``False`` the initialization
        interval is applied analytically (pure diffusion) and the intervals
        run through :func:`repro.dynamics.integrators.euler_maruyama_final`,
        which never materializes an intermediate state.  Both consume the
        same random stream and produce bit-identical phases.
    frequency_detuning:
        Optional per-oscillator free-running frequency offsets (radians/second)
        modelling static process variation; applied during the annealing and
        SHIL intervals of every stage.  Note these are rad/s rates (drawn with
        standard deviation ``config.frequency_detuning_rate_std``), not the
        relative ``config.frequency_detuning_std`` fraction.
    precision:
        Precision tier of the stage arithmetic: ``"exact"`` (default,
        bit-identical contract: float64 state, :class:`BatchedOscillatorModel`)
        or ``"throughput"`` (float32 state and a
        :class:`ThroughputOscillatorModel`, fed by the caller's batched
        :class:`repro.rng.ThroughputRNG`; statistical contract, owned by the
        equivalence harness).  The throughput tier runs without trajectory
        collection.
    """

    config: MSROPMConfig
    edge_index: np.ndarray
    num_oscillators: int
    collect_trajectory: bool = False
    frequency_detuning: Optional[np.ndarray] = None
    precision: str = "exact"

    @property
    def state_dtype(self) -> np.dtype:
        """dtype of the integrated phase state under this executor's tier."""
        return np.dtype(np.float32 if self.precision == "throughput" else float)

    @property
    def plan(self) -> CouplingPlan:
        """The executor's precompiled :class:`CouplingPlan` (built lazily once)."""
        plan = self.__dict__.get("_plan")
        if plan is None:
            plan = CouplingPlan(
                self.edge_index,
                self.num_oscillators,
                self.config.coupling_rate,
                dtype=self.state_dtype,
            )
            self._plan = plan
        return plan

    def run_stage(
        self,
        stage_index: int,
        phases: np.ndarray,
        group_values: np.ndarray,
        rng,
        start_time: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Trajectory]]:
        """Execute stage ``stage_index`` on the ``(R, N)`` replica batch ``phases``.

        ``group_values`` is the matching ``(R, N)`` gating table read out by
        the earlier stages; randomness comes from ``rng``, typically a
        :class:`repro.rng.ReplicaRNG` whose per-replica streams are consumed
        exactly as R separate runs would consume them.  Returns
        ``(final_phases, stage_bits, trajectory_or_None)`` where
        ``stage_bits`` is the per-oscillator binary read-out of this stage,
        shaped like ``phases``, and the trajectory (``(T, R, N)`` phases) is
        present only when the executor collects trajectories.
        """
        if np.ndim(phases) != 2:
            raise StageError(
                f"run_stage takes a batched (R, N) phase array, got shape {np.shape(phases)}"
            )
        group_values = np.asarray(group_values, dtype=int)
        if group_values.shape != np.shape(phases):
            raise StageError(
                f"batched group_values shape {group_values.shape} must match "
                f"phases shape {np.shape(phases)}"
            )
        throughput = self.precision == "throughput"
        if throughput and self.collect_trajectory:
            raise StageError("precision='throughput' runs without trajectory collection")
        config = self.config
        timing = config.timing
        rng = make_rng(rng)
        diffusion = config.phase_noise_diffusion
        dtype = self.state_dtype
        phases = np.asarray(phases, dtype=dtype)
        time = start_time
        trajectory: Optional[Trajectory] = None

        coupling = self.plan.operator(group_values)
        offsets = group_offsets(group_values, stage_index)
        if throughput:
            model_class, tier = ThroughputOscillatorModel, {"dtype": dtype}
        else:
            model_class, tier = BatchedOscillatorModel, {}

        def integrate(model, phases, duration, time):
            nonlocal trajectory
            if not self.collect_trajectory:
                return euler_maruyama_final(
                    model, phases, duration, config.time_step, noise_amplitude=diffusion,
                    seed=rng, start_time=time, dtype=dtype,
                )
            segment = integrate_euler_maruyama(
                model, phases, duration, config.time_step, noise_amplitude=diffusion,
                seed=rng, start_time=time, record_every=1,
            )
            trajectory = segment if trajectory is None else trajectory.concatenate(segment)
            return segment.final_phases

        # ------------------------------------------------------- initialization
        if self.collect_trajectory:
            free_model = BatchedOscillatorModel(
                coupling=FastSharedCoupling(
                    sparse.csr_matrix((self.num_oscillators, self.num_oscillators))
                ),
                num_oscillators=self.num_oscillators,
            )
            phases = integrate(free_model, phases, timing.initialization, time)
        else:
            # Couplings and SHIL are off, so the interval is a pure phase
            # diffusion; apply the equivalent Gaussian walk directly.
            std = np.sqrt(2.0 * diffusion * timing.initialization)
            if std > 0:
                phases = phases + rng.normal(0.0, std, size=phases.shape)
        time += timing.initialization

        # ------------------------------------------------------------ annealing
        anneal_model = model_class(
            coupling=coupling,
            num_oscillators=self.num_oscillators,
            shil_strength=0.0,
            frequency_detuning=self.frequency_detuning,
            coupling_ramp=config.annealing_policy.coupling_ramp(time, timing.annealing),
            **tier,
        )
        phases = integrate(anneal_model, phases, timing.annealing, time)
        time += timing.annealing

        # ------------------------------------------------------------ SHIL lock
        lock_model = model_class(
            coupling=coupling,
            num_oscillators=self.num_oscillators,
            shil_strength=config.shil_rate,
            shil_offset=offsets,
            shil_order=2,
            frequency_detuning=self.frequency_detuning,
            shil_ramp=config.annealing_policy.shil_ramp(time, timing.shil_settling),
            **tier,
        )
        phases = integrate(lock_model, phases, timing.shil_settling, time)

        bits = binarize_against_offsets(phases, offsets)
        return phases, bits, trajectory
