"""Ising / Potts / max-cut model layer (Eqs. 1-4 of the paper)."""

from repro.ising.ising_model import IsingProblem, labels_to_spins, spins_to_labels
from repro.ising.potts_model import PottsProblem, potts_accuracy
from repro.ising.vector_potts import (
    binarize_phases,
    ising_phase_energy,
    phase_alignment_error,
    phase_difference,
    phases_to_spins,
    potts_energy_from_phases,
    spins_to_phases,
    target_phases,
    vector_potts_energy,
    wrap_phase,
)
from repro.ising.maxcut import (
    MaxCutProblem,
    cut_from_ising_energy,
    greedy_local_improvement,
    kings_graph_reference_cut,
    random_partition,
)

__all__ = [
    "IsingProblem",
    "PottsProblem",
    "MaxCutProblem",
    "labels_to_spins",
    "spins_to_labels",
    "potts_accuracy",
    "wrap_phase",
    "phase_difference",
    "vector_potts_energy",
    "ising_phase_energy",
    "target_phases",
    "spins_to_phases",
    "phases_to_spins",
    "phase_alignment_error",
    "binarize_phases",
    "potts_energy_from_phases",
    "cut_from_ising_energy",
    "kings_graph_reference_cut",
    "random_partition",
    "greedy_local_improvement",
]
