"""Trace post-processing: phase breakdown tables and JSON/CSV export.

Consumes a :class:`repro.obs.Tracer` and renders the per-phase latency
breakdown the ``repro trace`` CLI prints for Table I scenarios, plus
machine-readable dumps for downstream analysis (notebooks, CI artifacts).
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .tables import AsciiTable

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer

__all__ = [
    "counters_table",
    "job_breakdown_table",
    "phase_breakdown_table",
    "write_trace_csv",
    "write_trace_json",
]


def phase_breakdown_table(tracer: "Tracer",
                          title: str = "Per-phase latency breakdown"
                          ) -> AsciiTable:
    """One row per span name: count, mean/p50/p95/max, total, errors."""
    table = AsciiTable(
        ["phase", "count", "mean (s)", "p50 (s)", "p95 (s)", "max (s)",
         "total (s)", "errors"],
        title=title, precision=3)
    for name, row in tracer.phase_stats().items():
        table.add_row(name, row["count"], row["mean"], row["p50"], row["p95"],
                      row["max"], row["total"], row["errors"])
    return table


def job_breakdown_table(tracer: "Tracer", jobs: Optional[List[str]] = None,
                        title: str = "Per-job phase totals (s)") -> AsciiTable:
    """Jobs as rows, canonical phases as columns (totals in seconds)."""
    jobs = tracer.jobs() if jobs is None else jobs
    breakdowns = [tracer.job_breakdown(job) for job in jobs]
    phases: List[str] = []
    for breakdown in breakdowns:
        for name in breakdown:
            if name not in phases:
                phases.append(name)
    table = AsciiTable(["job"] + phases, title=title, precision=3)
    for job, breakdown in zip(jobs, breakdowns):
        table.add_row(job, *[breakdown.get(p) for p in phases])
    return table


def counters_table(tracer: "Tracer",
                   title: str = "Event tallies") -> AsciiTable:
    """One row per event kind: how many were recorded (exact)."""
    table = AsciiTable(["event", "count"], title=title)
    for name in sorted(tracer.event_counts):
        table.add_row(name, tracer.event_counts[name])
    return table


def write_trace_json(tracer: "Tracer", path: str,
                     extra: Optional[Dict[str, Any]] = None) -> None:
    """Dump the full tracer snapshot (phases, tallies, spans, events)."""
    payload = tracer.to_dict()
    if extra:
        payload["run"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")


def write_trace_csv(tracer: "Tracer", path: str) -> int:
    """Write retained spans as CSV rows; returns the row count."""
    fields = ["name", "job", "site", "start", "end", "elapsed", "status",
              "depth"]
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for span in tracer.spans:
            writer.writerow([
                span.name, span.job or "", span.site or "",
                f"{span.start:.9g}",
                "" if span.end is None else f"{span.end:.9g}",
                "" if span.end is None else f"{span.elapsed:.9g}",
                span.status, span.depth,
            ])
            n += 1
    return n
