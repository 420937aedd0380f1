"""Circuit models of the MSROPM: power, timing/control and the ROSC model.

The 65 nm technology corner, the ring oscillator and its inverter, and the
B2B coupling element feed the bottom-up power model (Table 1's power column);
the control schedule gives each stage its timing plan.
"""

from repro.circuit.technology import (
    TECH_65NM_GP,
    TECH_65NM_LP,
    Technology,
    dynamic_power,
    leakage_power,
)
from repro.circuit.inverter import Inverter, ROSC_INVERTER
from repro.circuit.ring_oscillator import RingOscillator, paper_rosc
from repro.circuit.coupling import CouplingElement, b2b_coupling
from repro.circuit.control import (
    ControlSchedule,
    ControlState,
    StageInterval,
    StageKind,
    TimingPlan,
    msropm_schedule,
    multi_stage_schedule,
)
from repro.circuit.power import PAPER_POWER_MW, PowerModel, energy_per_solution

__all__ = [
    "Technology",
    "TECH_65NM_GP",
    "TECH_65NM_LP",
    "dynamic_power",
    "leakage_power",
    "Inverter",
    "ROSC_INVERTER",
    "RingOscillator",
    "paper_rosc",
    "CouplingElement",
    "b2b_coupling",
    "ControlSchedule",
    "ControlState",
    "StageInterval",
    "StageKind",
    "TimingPlan",
    "msropm_schedule",
    "multi_stage_schedule",
    "PowerModel",
    "PAPER_POWER_MW",
    "energy_per_solution",
]
