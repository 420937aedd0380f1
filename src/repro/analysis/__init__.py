"""Analysis layer: text reporting, the Table 2 comparison and result serialization."""

from repro.analysis.reporting import (
    FamilyAccuracySummary,
    accuracy_series_text,
    format_accuracy,
    format_float,
    format_power_mw,
    format_search_space,
    format_table,
    format_time_ns,
    present_accuracy,
    summarize_accuracy_by_family,
    text_histogram,
)
from repro.analysis.comparison import (
    LITERATURE_ROWS,
    TABLE2_HEADERS,
    ComparisonRow,
    ComparisonTable,
    accuracy_range_text,
)
from repro.analysis.results_io import (
    load_solve_result,
    save_solve_result,
    solve_result_from_dict,
    solve_result_to_dict,
)

__all__ = [
    "format_table",
    "format_float",
    "format_power_mw",
    "format_time_ns",
    "format_search_space",
    "format_accuracy",
    "present_accuracy",
    "FamilyAccuracySummary",
    "summarize_accuracy_by_family",
    "text_histogram",
    "accuracy_series_text",
    "ComparisonRow",
    "ComparisonTable",
    "LITERATURE_ROWS",
    "TABLE2_HEADERS",
    "accuracy_range_text",
    "save_solve_result",
    "load_solve_result",
    "solve_result_to_dict",
    "solve_result_from_dict",
]
