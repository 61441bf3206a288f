"""Unit tests for the ASCII chart renderer."""

import pytest

from repro.metrics import AsciiChart, Series, size_profile_chart


class TestAsciiChart:
    def test_render_basic(self):
        chart = AsciiChart("Test", width=20, height=6)
        chart.add_series("up", [1, 2, 3, 4, 5])
        text = chart.render()
        assert "Test" in text
        assert "* up" in text
        lines = text.splitlines()
        assert any("|" in line for line in lines)

    def test_empty_series_rejected(self):
        chart = AsciiChart("T")
        with pytest.raises(ValueError):
            chart.add_series("nothing", [])

    def test_render_without_series_rejected(self):
        with pytest.raises(ValueError):
            AsciiChart("T").render()

    def test_two_series_distinct_glyphs(self):
        chart = AsciiChart("T", width=20, height=8)
        chart.add_series("low", [1.0] * 10)
        chart.add_series("high", [10.0] * 10)
        text = chart.render()
        assert "*" in text and "o" in text
        # The high curve is rendered above the low one.
        rows = [line for line in text.splitlines() if "|" in line]
        first_o = next(i for i, r in enumerate(rows) if "o" in r)
        first_star = next(i for i, r in enumerate(rows) if "*" in r)
        assert first_o < first_star

    def test_flat_series_does_not_crash(self):
        chart = AsciiChart("T", width=10, height=4)
        chart.add_series("flat", [3.0, 3.0, 3.0])
        assert chart.render()

    def test_log_scale_bounds(self):
        chart = AsciiChart("T", width=20, height=6, log_y=True)
        chart.add_series("wide", [0.001, 1000.0])
        text = chart.render()
        assert "1e+03" in text or "1000" in text

    def test_axis_labels_present(self):
        chart = AsciiChart("T", width=16, height=5, y_label="seconds",
                           x_label="iteration")
        chart.add_series("s", [1, 2])
        text = chart.render()
        assert "(seconds)" in text
        assert "iteration" in text


class TestHelpers:
    def test_size_profile_chart(self):
        sizes = (10, 100, 1000)
        data = {
            "fast": {s: Series.of("f", [s * 1e-6]) for s in sizes},
            "slow": {s: Series.of("s", [s * 1e-5]) for s in sizes},
        }
        text = size_profile_chart("Profile", data, sizes)
        assert "Profile" in text
        assert "log x" in text
