"""Tests for the control schedule and the power model."""

from __future__ import annotations

import pytest

from repro.exceptions import CircuitError, StageError
from repro.circuit import (
    ControlState,
    PAPER_POWER_MW,
    PowerModel,
    StageInterval,
    StageKind,
    TimingPlan,
    energy_per_solution,
    msropm_schedule,
    multi_stage_schedule,
)
from repro.graphs import kings_graph
from repro.units import as_ns, ns


class TestControlSchedule:
    def test_paper_timing_totals_60ns(self):
        plan = TimingPlan()
        assert as_ns(plan.total_for_stages(2)) == pytest.approx(60.0)
        assert as_ns(msropm_schedule().total_duration) == pytest.approx(60.0)

    def test_schedule_structure(self):
        schedule = msropm_schedule()
        kinds = [interval.kind for interval in schedule.intervals]
        assert kinds == [
            StageKind.INITIALIZE,
            StageKind.ANNEAL,
            StageKind.SHIL_LOCK,
            StageKind.INITIALIZE,
            StageKind.ANNEAL,
            StageKind.SHIL_LOCK,
        ]
        final = schedule.intervals[-1]
        assert final.control.dual_shil
        assert final.control.respect_partition

    def test_interval_at(self):
        schedule = msropm_schedule()
        assert schedule.interval_at(ns(1.0)).label == "init-1"
        assert schedule.interval_at(ns(10.0)).label == "anneal-1"
        assert schedule.interval_at(ns(59.0)).label == "shil-2"
        with pytest.raises(StageError):
            schedule.interval_at(ns(61.0))
        with pytest.raises(StageError):
            schedule.interval_at(-1.0)

    def test_boundaries_monotone(self):
        boundaries = msropm_schedule().boundaries()
        assert boundaries == sorted(boundaries)
        assert len(boundaries) == 6

    def test_labelled_lookup(self):
        schedule = msropm_schedule()
        assert schedule.labelled("anneal-2") is not None
        assert schedule.labelled("missing") is None

    def test_multi_stage_schedule_three_stages(self):
        schedule = multi_stage_schedule(3)
        assert len(schedule.intervals) == 9
        assert as_ns(schedule.total_duration) == pytest.approx(90.0)
        assert schedule.intervals[-1].control.dual_shil

    def test_multi_stage_schedule_single_stage(self):
        schedule = multi_stage_schedule(1)
        assert not schedule.intervals[-1].control.dual_shil

    def test_validation(self):
        with pytest.raises(StageError):
            multi_stage_schedule(0)
        with pytest.raises(StageError):
            TimingPlan(initialization=0.0)
        with pytest.raises(StageError):
            StageInterval(kind=StageKind.ANNEAL, duration=0.0, control=ControlState())


class TestPowerModel:
    def test_total_power_positive_and_monotone(self):
        model = PowerModel()
        small = model.total_power(49, 156)
        large = model.total_power(2116, 8372)
        assert 0 < small < large

    def test_breakdown_sums_to_total(self):
        model = PowerModel()
        breakdown = model.power_breakdown(400, 1482)
        assert sum(breakdown.values()) == pytest.approx(model.total_power(400, 1482))

    def test_power_tracks_paper_magnitudes(self):
        """The modeled power should land within 2x of every Table 1 entry."""
        model = PowerModel()
        sides = {49: 7, 400: 20, 1024: 32, 2116: 46}
        for nodes, paper_mw in PAPER_POWER_MW.items():
            graph = kings_graph(sides[nodes], sides[nodes])
            modeled = model.total_power_mw(graph.num_nodes, graph.num_edges)
            assert modeled == pytest.approx(paper_mw, rel=1.0)

    def test_validation(self):
        with pytest.raises(CircuitError):
            PowerModel(oscillator_activity=1.5)
        with pytest.raises(CircuitError):
            PowerModel().total_power(-1, 0)

    def test_energy_per_solution(self):
        assert energy_per_solution(0.2834, 60e-9) == pytest.approx(0.2834 * 60e-9)
        with pytest.raises(CircuitError):
            energy_per_solution(-1.0, 1.0)
