"""Tests for CSV/JSON export of experiment data."""

import csv
import json
import os

import pytest

from repro.experiments import (
    HalfLifeSweepConfig,
    collect_series,
    export_all,
    export_result,
)
from repro.experiments.common import ExperimentResult
from repro.metrics import Series
from repro.runner import run_experiment


def make_result():
    result = ExperimentResult("unit-test", "Unit test result", "nowhere")
    result.data["flat"] = Series.of("flat", [1.0, 2.0, 3.0])
    result.data["nested"] = {
        "a": Series.of("a", [4.0]),
        "deeper": {10: Series.of("ten", [5.0, 6.0])},
    }
    result.check("always true", True, "ok")
    result.check("always false", False, "sad")
    return result


class TestCollectSeries:
    def test_flattening(self):
        series = collect_series(make_result())
        assert set(series) == {"flat", "nested.a", "nested.deeper.10"}
        assert series["flat"].values == (1.0, 2.0, 3.0)

    def test_non_series_values_skipped(self):
        result = ExperimentResult("x", "t", "p")
        result.data["junk"] = {"text": "hello", "number": 42}
        assert collect_series(result) == {}


class TestExport:
    def test_files_written_and_loadable(self, tmp_path):
        result = make_result()
        written = export_result(result, str(tmp_path))
        assert len(written) == 3
        for path in written:
            assert os.path.exists(path)

        with open(written[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"series", "index", "value"} <= set(rows[0])
        flat_rows = [r for r in rows if r["series"] == "flat"]
        assert [float(r["value"]) for r in flat_rows] == [1.0, 2.0, 3.0]

        with open(written[1], newline="") as fh:
            checks = list(csv.DictReader(fh))
        assert len(checks) == 2

        with open(written[2]) as fh:
            manifest = json.load(fh)
        assert manifest["experiment_id"] == "unit-test"
        assert manifest["passed"] is False
        assert manifest["series"]["flat"]["count"] == 3

    def test_export_all(self, tmp_path):
        result = run_experiment("ablation-halflife", HalfLifeSweepConfig())
        paths = export_all([result], str(tmp_path))
        assert "ablation-halflife" in paths
        assert all(os.path.exists(p)
                   for plist in paths.values() for p in plist)

    def test_cli_export_flag(self, tmp_path):
        from repro.experiments.cli import main

        code = main(["run", "ablation-halflife", "--no-cache", "--export",
                     str(tmp_path)])
        assert code == 0
        assert any(name.endswith("_manifest.json")
                   for name in os.listdir(tmp_path))
