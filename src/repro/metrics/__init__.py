"""Measurement post-processing: tables, series, shape checks."""

from .figures import AsciiChart, size_profile_chart
from .phases import (
    counters_table,
    job_breakdown_table,
    phase_breakdown_table,
    write_trace_csv,
    write_trace_json,
)
from .telemetry_tables import (
    render_telemetry,
    telemetry_counters_table,
    telemetry_gauges_table,
    telemetry_histograms_table,
    telemetry_overview,
)
from .timeline import JobLane, render_timeline
from .series import (
    Series,
    crossover_size,
    downsample,
    indistinguishable,
    ranking,
    ratio,
    relative_increase,
    sparkline,
    winner,
)
from .tables import AsciiTable, format_cell

__all__ = [
    "AsciiChart",
    "AsciiTable",
    "JobLane",
    "counters_table",
    "job_breakdown_table",
    "phase_breakdown_table",
    "write_trace_csv",
    "write_trace_json",
    "render_telemetry",
    "render_timeline",
    "size_profile_chart",
    "Series",
    "crossover_size",
    "downsample",
    "format_cell",
    "indistinguishable",
    "ranking",
    "ratio",
    "relative_increase",
    "sparkline",
    "telemetry_counters_table",
    "telemetry_gauges_table",
    "telemetry_histograms_table",
    "telemetry_overview",
    "winner",
]
