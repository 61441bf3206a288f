"""Raw-data export for experiment results.

Every :class:`ExperimentResult` carries its raw sample vectors in
``result.data``; this module flattens them to CSV files plus a JSON
manifest so the figures can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, List, Mapping

from ..metrics import Series
from .common import ExperimentResult


def _flatten_series(prefix: str, value: Any,
                    out: Dict[str, Series]) -> None:
    """Recursively collect Series objects under dotted keys."""
    if isinstance(value, Series):
        out[prefix] = value
        return
    if isinstance(value, Mapping):
        for key, sub in value.items():
            _flatten_series(f"{prefix}.{key}" if prefix else str(key),
                            sub, out)


def collect_series(result: ExperimentResult) -> Dict[str, Series]:
    """All Series in the result's data tree, keyed by dotted path."""
    out: Dict[str, Series] = {}
    for key, value in result.data.items():
        _flatten_series(key, value, out)
    return out


def export_result(result: ExperimentResult, directory: str) -> List[str]:
    """Write ``<id>_series.csv``, ``<id>_checks.csv`` and a manifest, plus
    ``<id>_telemetry.json`` (the merged snapshot) when the run collected
    telemetry.

    Returns the list of paths written.  The series CSV is long-form:
    ``series,index,value`` — one row per sample, trivially loadable by
    pandas/R/gnuplot.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    series = collect_series(result)
    series_path = os.path.join(directory,
                               f"{result.experiment_id}_series.csv")
    with open(series_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "index", "value"])
        for name, vector in sorted(series.items()):
            for index, value in enumerate(vector.values):
                writer.writerow([name, index, repr(value)])
    written.append(series_path)

    checks_path = os.path.join(directory,
                               f"{result.experiment_id}_checks.csv")
    with open(checks_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["description", "passed", "detail"])
        for check in result.checks:
            writer.writerow([check.description, check.passed, check.detail])
    written.append(checks_path)

    telemetry = result.data.get("telemetry")
    if telemetry is not None:
        telemetry_path = os.path.join(
            directory, f"{result.experiment_id}_telemetry.json")
        with open(telemetry_path, "w", encoding="utf-8") as fh:
            json.dump(telemetry["merged"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(telemetry_path)

    manifest_path = os.path.join(directory,
                                 f"{result.experiment_id}_manifest.json")
    manifest = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_reference": result.paper_reference,
        "passed": result.passed,
        "series": {name: {"count": len(vector.values),
                          "mean": vector.mean,
                          "std": vector.std}
                   for name, vector in sorted(series.items())},
        "tables": [table.title for table in result.tables],
        "files": [os.path.basename(p) for p in written],
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    written.append(manifest_path)
    return written


def export_all(results: List[ExperimentResult],
               directory: str) -> Dict[str, List[str]]:
    """Export every result; returns experiment_id -> written paths."""
    return {result.experiment_id: export_result(result, directory)
            for result in results}
