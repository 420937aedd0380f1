"""Tests for the workload zoo: registry, generated specs, scenario matrix.

The load-bearing properties are the acceptance criteria of the zoo:

* every registered family expands, builds and hashes stably,
* a generated-ensemble job's cache key depends only on its recipe
  (family + params + seed) — verified across OS processes,
* workloads solve through the runtime cache (cold run stores, warm run hits),
* the scenario matrix is bit-identical between 1 and N workers.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.protocol import run_experiment
from repro.experiments.scenario_matrix import (
    SCENARIO_BASELINES,
    plan_scenario_requests,
)
from repro.runtime.jobs import DimacsGraphSpec, GeneratedGraphSpec, KingsGraphSpec, SolveJob
from repro.runtime.runner import ExperimentRunner
from repro.workloads import (
    WorkloadSpec,
    default_workload,
    derive_instance_seed,
    expand_workloads,
    family_names,
    get_family,
)

EXPECTED_FAMILIES = {
    "kings",
    "er",
    "regular",
    "planar",
    "dimacs",
    "maxcut",
    "wmaxcut",
    "kcolor8",
    "kcolor16",
}


class TestRegistry:
    def test_builtin_families_registered(self):
        assert EXPECTED_FAMILIES <= set(family_names())

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload family"):
            get_family("no-such-family")

    def test_colliding_registration_fails_fast_and_keeps_registry_whole(self):
        from repro.workloads import register_family

        # Builtins are loaded before the collision check, so a clash with a
        # built-in name raises here — and never poisons the lazy builtin load.
        er = get_family("er")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_family(er)
        assert EXPECTED_FAMILIES <= set(family_names())

    def test_every_family_expands_and_builds(self):
        for instance in expand_workloads():
            graph = instance.build()
            assert graph.num_nodes > 0
            assert instance.kind in ("coloring", "maxcut")
            assert instance.num_colors in (2, 4, 8, 16)
            # The spec builds the same content the instance reports.
            assert instance.spec.build().num_nodes == graph.num_nodes

    def test_expansion_is_deterministic(self):
        first = expand_workloads(base_seed=7)
        second = expand_workloads(base_seed=7)
        assert [i.label for i in first] == [i.label for i in second]
        assert [i.seed for i in first] == [i.seed for i in second]
        assert [i.spec.fingerprint() for i in first] == [i.spec.fingerprint() for i in second]

    def test_base_seed_changes_ensemble_instances_only(self):
        a = {i.label for i in expand_workloads(["er"], base_seed=1)}
        b = {i.label for i in expand_workloads(["er"], base_seed=2)}
        assert a.isdisjoint(b)
        assert {i.label for i in expand_workloads(["kings"], base_seed=1)} == {
            i.label for i in expand_workloads(["kings"], base_seed=2)
        }

    def test_derive_instance_seed_is_content_stable(self):
        assert derive_instance_seed(1, "er", 0, 0) == derive_instance_seed(1, "er", 0, 0)
        assert derive_instance_seed(1, "er", 0, 0) != derive_instance_seed(1, "er", 0, 1)
        assert derive_instance_seed(1, "er", 0, 0) != derive_instance_seed(2, "er", 0, 0)

    def test_reference_solutions(self):
        references = {
            (instance.family, instance.label): instance.reference()
            for instance in expand_workloads(["kings", "dimacs", "planar", "maxcut"])
        }
        assert references[("kings", "kings-5x5")].colorable is True
        assert references[("dimacs", "myciel3")].colorable is True
        assert references[("dimacs", "myciel4")].colorable is False  # chromatic number 5
        for (family, _), reference in references.items():
            if family == "planar":
                assert reference.colorable is True
            if reference.kind == "maxcut":
                assert reference.reference_cut and reference.reference_cut > 0

    def test_custom_grid_and_replicates(self):
        spec = WorkloadSpec(family="er", grid=({"n": 10, "p": 0.2},), base_seed=3, replicates=3)
        instances = spec.expand()
        assert len(instances) == 3
        assert len({i.seed for i in instances}) == 3
        assert all(i.build().num_nodes == 10 for i in instances)


class TestGeneratedGraphSpec:
    def test_fingerprint_is_recipe_not_adjacency(self):
        spec = GeneratedGraphSpec.create("er", seed=5, n=12, p=0.3)
        assert spec.fingerprint() == {
            "kind": "generated",
            "family": "er",
            "params": {"n": 12, "p": 0.3},
            "seed": 5,
        }
        # Keyword order does not matter; the recipe is canonicalized.
        assert GeneratedGraphSpec.create("er", seed=5, p=0.3, n=12) == spec

    def test_build_dispatches_through_registry(self):
        spec = GeneratedGraphSpec.create("er", seed=5, n=12, p=0.3)
        graph = spec.build()
        assert graph.num_nodes == 12
        # Deterministic: same recipe, same edges.
        assert sorted(spec.build().edges()) == sorted(
            GeneratedGraphSpec.create("er", seed=5, n=12, p=0.3).build().edges()
        )

    def test_unknown_family_raises_on_build(self):
        with pytest.raises(ConfigurationError):
            GeneratedGraphSpec.create("nope", seed=1, n=4).build()

    def test_seedless_generated_jobs_are_uncacheable(self, fast_config):
        seeded = SolveJob(
            spec=GeneratedGraphSpec.create("er", seed=3, n=8, p=0.5),
            config=fast_config,
            seed=1,
            total_iterations=2,
        )
        assert seeded.cacheable
        unseeded = SolveJob(
            spec=GeneratedGraphSpec.create("er", seed=None, n=8, p=0.5),
            config=fast_config,
            seed=1,
            total_iterations=2,
        )
        assert not unseeded.cacheable
        with pytest.raises(ConfigurationError):
            _ = unseeded.job_hash

    #: One definition of the cross-process job, exec'd both here and in a
    #: fresh interpreter, so the two sides can never drift apart.
    _CROSS_PROCESS_JOB_SCRIPT = (
        "from repro.runtime.jobs import GeneratedGraphSpec, SolveJob\n"
        "from repro.core.config import MSROPMConfig\n"
        "config = MSROPMConfig(num_colors=4, seed=1234)\n"
        "job = SolveJob(spec=GeneratedGraphSpec.create('er', seed=11, n=10, p=0.25),"
        " config=config, seed=42, total_iterations=3)\n"
    )

    def test_job_hash_stable_across_processes(self):
        """The acceptance property: the cache key of a generated-ensemble job
        is a pure content hash (family + params + seed), identical in a fresh
        interpreter with its own hash randomization."""
        namespace: dict = {}
        exec(self._CROSS_PROCESS_JOB_SCRIPT, namespace)
        job = namespace["job"]
        script = self._CROSS_PROCESS_JOB_SCRIPT + "print(job.job_hash)\n"
        import os
        from pathlib import Path

        import repro

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "271828"  # different hash randomization on purpose
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert completed.stdout.strip() == job.job_hash


class TestWorkloadsThroughRuntime:
    def test_every_family_solves_through_the_cache(self, fast_config, tmp_path):
        """Registry round trip: one small instance per family solves, stores,
        and resolves from a warm cache bit-identically."""
        instances = [default_workload(name, base_seed=5).expand()[0] for name in family_names()]
        requests = plan_scenario_requests(instances, iterations=2, seed=5, config=fast_config)
        cold = ExperimentRunner(cache_dir=tmp_path / "cache")
        first = cold.solve_many(requests)
        assert cold.stats()["cache_stores"] == len(requests)
        warm = ExperimentRunner(cache_dir=tmp_path / "cache")
        second = warm.solve_many(requests)
        assert warm.stats()["jobs_run"] == 0
        assert warm.stats()["cache_hits"] == len(requests)
        for a, b in zip(first, second):
            assert list(a.accuracies) == list(b.accuracies)
            assert [i.coloring.assignment for i in a.iterations] == [
                i.coloring.assignment for i in b.iterations
            ]


class TestScenarioMatrix:
    def test_parallel_matches_serial_bit_for_bit(self, fast_config):
        """The acceptance property: scenarios with N workers == 1 worker."""
        kwargs = dict(
            families=["er", "dimacs"],
            iterations=2,
            seed=9,
            config=fast_config,
            baselines=("sa",),
        )
        serial = run_experiment("scenarios", kwargs, ExperimentRunner(workers=1))
        parallel = run_experiment("scenarios", kwargs, ExperimentRunner(workers=2))
        assert serial.render() == parallel.render()
        for a, b in zip(serial.rows, parallel.rows):
            assert a.msropm_accuracies == b.msropm_accuracies
            assert a.baselines == b.baselines

    def test_matrix_covers_kinds_and_baseline_applicability(self, fast_config):
        result = run_experiment("scenarios", dict(
            families=["dimacs", "maxcut"],
            iterations=2,
            seed=3,
            config=fast_config,
            baselines=SCENARIO_BASELINES,
        ))
        by_kind = {row.kind: row for row in result.rows}
        assert set(by_kind) == {"coloring", "maxcut"}
        coloring, maxcut = by_kind["coloring"], by_kind["maxcut"]
        assert coloring.baselines["roim"] is None and coloring.baselines["tabu"] is not None
        assert maxcut.baselines["tabu"] is None and maxcut.baselines["roim"] is not None
        assert maxcut.num_colors == 2
        summary = {item.family: item for item in result.family_summary()}
        assert set(summary) == {"dimacs", "maxcut"}
        assert all(item.count >= 1 for item in summary.values())

    def test_unknown_baseline_rejected(self, fast_config):
        with pytest.raises(ConfigurationError, match="unknown baseline"):
            run_experiment(
                "scenarios", dict(families=["dimacs"], config=fast_config, baselines=("sota",))
            )

    def test_warm_runner_skips_all_solves(self, fast_config, tmp_path):
        kwargs = dict(
            families=["dimacs"], iterations=2, seed=4, config=fast_config, baselines=()
        )
        cold = run_experiment(
            "scenarios", kwargs, ExperimentRunner(cache_dir=tmp_path / "cache")
        )
        warm = run_experiment(
            "scenarios", kwargs, ExperimentRunner(cache_dir=tmp_path / "cache")
        )
        assert cold.runner_stats["jobs_run"] > 0
        assert warm.runner_stats["jobs_run"] == 0
        assert warm.runner_stats["cache_hits"] == cold.runner_stats["cache_stores"]
        assert warm.render() == cold.render()


class TestBundledDimacsInstances:
    """The PR-9 additions to the DIMACS shelf: sizes and reference answers."""

    EXPECTED = {
        # instance: (family, nodes, edges, family colors, colorable)
        "myciel5": ("dimacs", 47, 236, 4, False),   # chromatic number 6
        "queen7_7": ("queens", 49, 476, 8, True),   # chromatic number 7
        "queen8_8": ("queens", 64, 728, 8, False),  # chromatic number 9
    }

    def test_new_instances_expand_with_known_references(self):
        from repro.workloads import default_workload

        for name, (family, nodes, edges, colors, colorable) in sorted(
            self.EXPECTED.items()
        ):
            instances = {
                instance.label: instance
                for instance in default_workload(family, base_seed=1).expand()
            }
            assert name in instances, f"{name} missing from family {family}"
            instance = instances[name]
            graph = instance.build()
            assert graph.num_nodes == nodes
            assert graph.num_edges == edges
            assert instance.num_colors == colors
            reference = instance.reference(graph)
            assert reference.provider == "known"
            assert reference.colorable is colorable
