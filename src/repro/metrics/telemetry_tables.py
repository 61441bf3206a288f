"""Telemetry post-processing: summary tables + sparkline overview.

Consumes a :meth:`repro.obs.Telemetry.snapshot` dict (the JSON-ready form
the runner carries through its cell cache), so the same renderers work on
a live registry, a merged multi-cell snapshot, or a cached one.  Every
renderer iterates sorted metric names — the output is deterministic
regardless of metric creation order.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .series import sparkline
from .tables import AsciiTable

__all__ = [
    "render_telemetry",
    "telemetry_counters_table",
    "telemetry_gauges_table",
    "telemetry_histograms_table",
    "telemetry_overview",
]


def telemetry_counters_table(snapshot: Mapping[str, Any],
                             title: str = "Telemetry counters") -> AsciiTable:
    table = AsciiTable(["counter", "value"], title=title, precision=3)
    counters = snapshot.get("counters", {})
    for name in sorted(counters):
        value = counters[name]
        # Render integral totals as integers (chunk/job counts).
        if float(value).is_integer():
            value = int(value)
        table.add_row(name, value)
    return table


def telemetry_gauges_table(snapshot: Mapping[str, Any],
                           title: str = "Telemetry gauges") -> AsciiTable:
    table = AsciiTable(["gauge", "last", "min", "max", "updates"],
                       title=title, precision=3)
    gauges = snapshot.get("gauges", {})
    for name in sorted(gauges):
        g = gauges[name]
        table.add_row(name, g["last"], g["min"], g["max"], g["updates"])
    return table


def telemetry_histograms_table(snapshot: Mapping[str, Any],
                               title: str = "Telemetry histograms"
                               ) -> AsciiTable:
    table = AsciiTable(
        ["histogram", "count", "mean", "min", "p50", "p95", "max"],
        title=title, precision=4)
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        h = histograms[name]
        table.add_row(name, h["count"], h["mean"], h["min"],
                      h.get("p50"), h.get("p95"), h["max"])
    return table


def telemetry_overview(snapshot: Mapping[str, Any], width: int = 42) -> str:
    """Sparkline-per-series text block (closes :func:`render_telemetry`).

    One line per recorded time series::

        broker.queue.batch      ▁▂▄█▅▂▁  last=0 n=57

    Values are the recorded ``(sim_time, value)`` points; the sparkline
    shows the decimated value trajectory over the run.
    """
    series = snapshot.get("series", {})
    if not series:
        return "(no time series recorded)"
    name_width = max(len(name) for name in series)
    lines: List[str] = []
    for name in sorted(series):
        points = series[name]
        values = [v for _, v in points]
        spark = sparkline(values, width=width) or "·"
        last = values[-1] if values else float("nan")
        if isinstance(last, float) and last.is_integer():
            last = int(last)
        lines.append(f"{name:<{name_width}}  {spark}  "
                     f"last={last} n={len(points)}")
    return "\n".join(lines)


def render_telemetry(snapshot: Mapping[str, Any], title: str,
                     series_note: str = "") -> str:
    """Every table above plus the sparkline overview, one block of text
    (what ``repro run --telemetry`` prints on stderr and ``repro trace
    --telemetry`` on stdout)."""
    parts = [telemetry_counters_table(
        snapshot, title=f"Telemetry counters — {title}").render(), ""]
    parts += [telemetry_gauges_table(
        snapshot, title=f"Telemetry gauges — {title}").render(), ""]
    if snapshot.get("histograms"):
        parts += [telemetry_histograms_table(
            snapshot, title=f"Telemetry histograms — {title}").render(), ""]
    parts += [f"Time series — {title}{series_note}",
              telemetry_overview(snapshot)]
    return "\n".join(parts)
