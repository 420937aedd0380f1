"""Tests for the experiment protocol: plan/reduce pairs, declared params,
and reduces that read everything from the results.

* An unknown or ill-typed param fails with ``ConfigurationError`` before any
  ticket is admitted, through ``run_experiment`` and through a campaign.
* A warm suite or scenario run, one-shot or campaign, builds no graph.
* A warm suite computes each planned job's hash exactly once.
* The comparison board's closed-form size matches the built King's graph.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import RunLedger, get_campaign, ledger_root, run_campaign
from repro.core.config import MSROPMConfig
from repro.exceptions import ConfigurationError
from repro.experiments.protocol import EXPERIMENT_MODULES, get_experiment, run_experiment
from repro.graphs.generators import kings_graph
from repro.runtime.jobs import (
    DimacsGraphSpec,
    GeneratedGraphSpec,
    Job,
    KingsGraphSpec,
    SolveJob,
    merge_requests,
)
from repro.runtime.runner import ExperimentRunner
from repro.workloads.registry import WorkloadInstance

SUITE_PARAMS = dict(scale=0.05, iterations=2, seed=2025)
SCENARIO_PARAMS = dict(
    families=["er", "dimacs", "maxcut", "wmaxcut"], iterations=2, seed=4, baselines=["sa"]
)

#: Small valid params per experiment, so a wrongly accepted bad param runs
#: a small plan instead of the paper-sized one.
SMALL = {
    "table1": dict(scale=0.05, iterations=1, sizes=[49]),
    "table2": dict(scale=0.05, iterations=1, msropm_nodes=49, comparison_nodes=49),
    "fig5": dict(scale=0.05, iterations=1, sizes=[49]),
    "suite": dict(scale=0.05, iterations=1),
    "scenarios": dict(families=["dimacs"], iterations=1, baselines=[]),
}


def _ill_typed(param) -> st.SearchStrategy:
    """Values of the wrong type for ``param`` (never ``None``: that means default)."""
    junk = st.one_of(st.text(max_size=4), st.booleans(), st.dictionaries(st.text(max_size=2), st.integers()))
    if param.item is not None:
        wrong_item = st.booleans() if param.item is int else st.integers()
        return st.one_of(
            st.text(max_size=4),  # a bare string is not a list of names
            st.integers(),
            st.lists(wrong_item, min_size=1, max_size=3),
        )
    kinds = param.type if isinstance(param.type, tuple) else (param.type,)
    if int in kinds or float in kinds:
        wrong = junk | st.lists(st.integers(), max_size=2)
        return wrong if float in kinds else wrong | st.floats(allow_nan=True)
    if str in kinds:
        return st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(st.text(max_size=2)))
    return st.one_of(st.integers(), st.text(max_size=4), st.booleans())


@st.composite
def bad_params(draw, declared, small):
    """``small`` with one unknown or one ill-typed parameter added."""
    params = dict(small)
    names = [param.name for param in declared]
    if draw(st.booleans()):
        name = draw(st.text(min_size=1, max_size=8).filter(lambda text: text not in names))
        params[name] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4)))
    else:
        param = draw(st.sampled_from(declared))
        params[param.name] = draw(_ill_typed(param))
    return params


def _assert_nothing_admitted(runner):
    stats = runner.stats()
    assert stats["tickets_issued"] == 0
    assert stats["jobs_run"] == 0


@st.composite
def experiment_and_bad_params(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENT_MODULES)))
    return name, draw(bad_params(get_experiment(name).params, SMALL[name]))


@st.composite
def campaign_and_bad_params(draw):
    name = draw(st.sampled_from(["suite", "scenarios"]))
    return name, draw(bad_params(get_campaign(name).params, SMALL[name]))


class TestParamValidation:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(experiment_and_bad_params())
    def test_run_experiment_rejects_before_admission(self, case):
        name, params = case
        runner = ExperimentRunner()
        with pytest.raises(ConfigurationError):
            run_experiment(name, params, runner)
        _assert_nothing_admitted(runner)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(campaign_and_bad_params())
    def test_campaign_rejects_before_admission(self, case):
        name, params = case
        runner = ExperimentRunner()
        with pytest.raises(ConfigurationError):
            run_campaign(get_campaign(name), params, runner=runner)
        _assert_nothing_admitted(runner)

    def test_every_problem_is_named_at_once(self):
        with pytest.raises(ConfigurationError) as info:
            get_experiment("table1").validate({"seed": "x", "sizes": "49", "colour": 4})
        message = str(info.value)
        assert "does not accept parameter(s) colour" in message
        assert "'seed' must be int" in message
        assert "'sizes' must be a list of int" in message

    def test_none_means_default_and_sequences_become_tuples(self):
        params = get_experiment("scenarios").validate(
            {"families": ["dimacs"], "iterations": None, "seed": None}
        )
        assert params["families"] == ("dimacs",)
        assert params["iterations"] == 5 and params["seed"] == 2025
        assert params["config"] is None

    def test_config_must_be_a_machine_config(self):
        assert get_experiment("fig5").validate({"config": MSROPMConfig()})["config"]
        with pytest.raises(ConfigurationError, match="'config' must be MSROPMConfig"):
            get_experiment("fig5").validate({"config": {"num_colors": 4}})

    def test_nan_scale_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="scale"):
            run_experiment("table1", {"scale": float("nan")})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("table3")


# ----------------------------------------------------------------------
# Warm reduces read their results
# ----------------------------------------------------------------------
def _one_shot(name, params, cache_dir):
    with ExperimentRunner(cache_dir=cache_dir) as runner:
        return run_experiment(name, params, runner)


def _campaign(name, params, cache_dir):
    with ExperimentRunner(cache_dir=cache_dir) as runner:
        return run_campaign(
            get_campaign(name), params, runner=runner,
            ledger=RunLedger(ledger_root(cache_dir)),
        ).final_output


class TestWarmRunsBuildNoGraph:
    def test_warm_suite_and_scenarios(self, tmp_path, monkeypatch):
        cases = [("suite", SUITE_PARAMS), ("scenarios", SCENARIO_PARAMS)]
        cold = {name: _one_shot(name, params, tmp_path).render() for name, params in cases}

        def refuse(*args, **kwargs):
            raise AssertionError("a warm run built a graph")

        for owner in (KingsGraphSpec, GeneratedGraphSpec, DimacsGraphSpec, WorkloadInstance):
            monkeypatch.setattr(owner, "build", refuse)
        for name, params in cases:
            for entry in (_one_shot, _campaign):
                warm = entry(name, params, tmp_path)
                assert warm.runner_stats["jobs_run"] == 0
                # The suite's summary line carries a wall time; the tables do not.
                assert warm.render().split("suite finished")[0] == cold[name].split(
                    "suite finished"
                )[0]


class TestJobHashedOncePerPlannedJob:
    @staticmethod
    def _count_hashes(monkeypatch):
        hashed = []
        compute = Job.__dict__["job_hash"].func

        def counted(job):
            hashed.append(job)
            return compute(job)

        prop = functools.cached_property(counted)
        prop.__set_name__(Job, "job_hash")
        monkeypatch.setattr(Job, "job_hash", prop)
        return hashed

    def test_warm_suite_campaign(self, tmp_path, monkeypatch):
        _campaign("suite", SUITE_PARAMS, tmp_path)
        hashed = self._count_hashes(monkeypatch)
        with ExperimentRunner(cache_dir=tmp_path) as runner:
            result = run_campaign(
                get_campaign("suite"), SUITE_PARAMS, runner=runner,
                ledger=RunLedger(ledger_root(tmp_path)),
            )
        planned = sum(report.num_jobs for report in result.reports)
        assert planned == 10
        assert len(hashed) == planned
        assert len({id(job) for job in hashed}) == planned

    def test_warm_one_shot_suite(self, tmp_path, monkeypatch):
        _one_shot("suite", SUITE_PARAMS, tmp_path)
        hashed = self._count_hashes(monkeypatch)
        warm = _one_shot("suite", SUITE_PARAMS, tmp_path)
        assert warm.runner_stats["jobs_run"] == 0
        assert len(hashed) == 10
        assert len({id(job) for job in hashed}) == 10


# ----------------------------------------------------------------------
# Closed forms and request regrouping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (2, 2), (3, 7), (4, 4), (20, 20), (9, 2)])
def test_kings_spec_counts_match_the_built_board(rows, cols):
    spec = KingsGraphSpec(rows, cols)
    board = kings_graph(rows, cols)
    assert (spec.num_nodes, spec.num_edges) == (board.num_nodes, board.num_edges)


def test_merge_requests_regroups_chunks_and_passes_payloads(fast_config):
    whole = SolveJob(spec=KingsGraphSpec(4, 4), config=fast_config, seed=3, total_iterations=5)
    chunks = whole.split(2)
    other = SolveJob(spec=KingsGraphSpec(4, 5), config=fast_config, seed=4, total_iterations=1)
    baseline = object()  # any job that is not a solve
    jobs = [*chunks, other, baseline]
    results = [job.run() for job in (*chunks, other)] + [{"accuracy": 1.0}]
    merged = merge_requests(jobs, results)
    assert len(merged) == 3
    assert merged[0].accuracies.tolist() == whole.run().accuracies.tolist()
    assert merged[1].num_iterations == 1
    assert merged[2] == {"accuracy": 1.0}
