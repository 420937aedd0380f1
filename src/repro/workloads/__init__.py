"""Workload zoo: declarative problem registry for the experiment runtime.

``repro.workloads`` unifies every problem source the repository knows —
King's boards, random-graph ensembles, bundled DIMACS benchmarks, max-cut
scenarios — behind one registry of :class:`WorkloadFamily` entries, each
expanding to content-addressed :class:`repro.runtime.jobs.GraphSpec` values
the runtime schedules and caches by.  ``msropm workloads list/show`` inspects
the zoo; ``msropm scenarios`` and
``run_experiment("scenarios", ...)`` (:mod:`repro.experiments.scenario_matrix`)
run it.
"""

from repro.workloads.registry import (
    ReferenceSolution,
    WorkloadFamily,
    WorkloadInstance,
    WorkloadSpec,
    default_workload,
    derive_instance_seed,
    expand_workloads,
    family_names,
    get_family,
    iter_families,
    register_family,
)

__all__ = [
    "ReferenceSolution",
    "WorkloadFamily",
    "WorkloadInstance",
    "WorkloadSpec",
    "default_workload",
    "derive_instance_seed",
    "expand_workloads",
    "family_names",
    "get_family",
    "iter_families",
    "register_family",
]
