"""Tests for the analysis layer: reporting and the comparison table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.analysis import (
    ComparisonRow,
    ComparisonTable,
    LITERATURE_ROWS,
    accuracy_range_text,
    accuracy_series_text,
    format_float,
    format_power_mw,
    format_search_space,
    format_table,
    format_time_ns,
    text_histogram,
)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("name", "value"), [["a", 1], ["long-name", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_validation(self):
        with pytest.raises(AnalysisError):
            format_table((), [])
        with pytest.raises(AnalysisError):
            format_table(("a",), [[1, 2]])

    def test_format_helpers(self):
        assert format_float(0.98765) == "0.988"
        assert format_float(float("nan")) == "nan"
        assert format_power_mw(0.2834) == "283.4 mW"
        assert format_time_ns(60e-9) == "60 ns"
        assert format_search_space(2116, 4) == "4^2116"

    def test_text_histogram(self):
        art = text_histogram([0.1, 0.1, 0.5, 0.9], num_bins=4, value_range=(0, 1), label="H")
        lines = art.splitlines()
        assert lines[0] == "H"
        assert len(lines) == 5
        assert text_histogram([], num_bins=3).endswith("(no data)")

    def test_text_histogram_validation(self):
        with pytest.raises(AnalysisError):
            text_histogram([0.5], num_bins=0)

    def test_accuracy_series_text(self):
        text = accuracy_series_text([0.9] * 25, label="series", per_line=10)
        lines = text.splitlines()
        assert lines[0] == "series"
        assert len(lines) == 4


class TestComparisonTable:
    def test_row_rendering(self):
        row = ComparisonRow(
            label="MSROPM",
            solver_type="Potts",
            solved_cop="4-coloring",
            technology="CMOS 65nm GP",
            spins=2116,
            average_power_w=0.2834,
            time_to_solution_s=60e-9,
            accuracy_range="96%-97%",
            baseline="Exact solution",
        )
        cells = row.cells()
        assert "283.4 mW" in cells
        assert "60 ns" in cells

    def test_dnr_rendering(self):
        row = LITERATURE_ROWS[1]
        cells = row.cells()
        assert cells[5] == "DNR"
        assert cells[6] == "DNR"

    def test_microsecond_rendering(self):
        assert "500 us" in LITERATURE_ROWS[0].cells()

    def test_table_with_literature(self):
        table = ComparisonTable()
        table.add_row(LITERATURE_ROWS[0])
        merged = table.with_literature()
        assert len(merged.rows) == 1 + len(LITERATURE_ROWS)
        text = merged.render()
        assert "Implementation" in text
        assert "ROIM [8]" in text

    def test_empty_table_render(self):
        with pytest.raises(AnalysisError):
            ComparisonTable().render()

    def test_accuracy_range_text(self):
        assert accuracy_range_text(0.92, 0.98) == "92%-98%"
        with pytest.raises(AnalysisError):
            accuracy_range_text(0.99, 0.9)
        with pytest.raises(AnalysisError):
            accuracy_range_text(-0.1, 0.5)
