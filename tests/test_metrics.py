"""Unit tests for tables, series analysis, and shape-check helpers."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    AsciiTable,
    Series,
    crossover_size,
    downsample,
    format_cell,
    indistinguishable,
    ranking,
    ratio,
    relative_increase,
    sparkline,
    winner,
)
from repro.metrics.figures import interp
from repro.metrics.series import linspace


class TestAsciiTable:
    def test_render_contains_data(self):
        table = AsciiTable(["name", "value"], title="T")
        table.add_row("alpha", 1.5)
        table.add_row("beta", 2.0)
        text = table.render()
        assert "T" in text
        assert "alpha" in text and "1.50" in text
        assert text.count("+") >= 6

    def test_row_arity_checked(self):
        table = AsciiTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown_render(self):
        table = AsciiTable(["a", "b"], title="MD")
        table.add_row("x", 1)
        md = table.render_markdown()
        assert "| a | b |" in md
        assert "|---|---|" in md

    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(float("nan")) == "-"
        assert format_cell(1.23456) == "1.23"
        assert format_cell(0.00001) == "1.00e-05"
        assert format_cell("text") == "text"
        assert format_cell(0.0) == "0.00"


class TestSeries:
    def test_mean_std(self):
        s = Series.of("s", [1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.std == pytest.approx(1.0)

    def test_single_sample_std_zero(self):
        assert Series.of("s", [5.0]).std == 0.0

    def test_ranking_and_winner(self):
        series = {
            "slow": Series.of("slow", [10.0, 11.0]),
            "fast": Series.of("fast", [1.0, 1.1]),
            "mid": Series.of("mid", [5.0]),
        }
        assert ranking(series) == ["fast", "mid", "slow"]
        assert winner(series) == "fast"

    def test_ratio(self):
        a = Series.of("a", [2.0])
        b = Series.of("b", [8.0])
        assert ratio(a, b) == 0.25

    def test_relative_increase(self):
        ref = Series.of("ref", [10.0])
        obs = Series.of("obs", [11.0])
        assert relative_increase(ref, obs) == pytest.approx(0.1)

    def test_indistinguishable(self):
        a = Series.of("a", [1.0, 1.0])
        b = Series.of("b", [1.005, 1.005])
        c = Series.of("c", [1.5])
        assert indistinguishable(a, b, 0.02)
        assert not indistinguishable(a, c, 0.02)

    def test_crossover_size(self):
        a = {10: Series.of("a", [5.0]), 1000: Series.of("a", [5.5]),
             10000: Series.of("a", [6.0])}
        b = {10: Series.of("b", [1.0]), 1000: Series.of("b", [5.0]),
             10000: Series.of("b", [9.0])}
        assert crossover_size(a, b) == 10000

    def test_crossover_none_when_never_wins(self):
        a = {10: Series.of("a", [5.0])}
        b = {10: Series.of("b", [1.0])}
        assert crossover_size(a, b) is None


class TestDownsampleSparkline:
    def test_downsample_shrinks(self):
        values = list(range(100))
        buckets = downsample(values, 10)
        assert len(buckets) == 10
        assert buckets[0] == pytest.approx(np.mean(range(10)))

    def test_downsample_short_series_passthrough(self):
        assert downsample([1.0, 2.0], 10) == [1.0, 2.0]

    def test_downsample_empty(self):
        assert downsample([], 5) == []

    def test_sparkline_length_and_charset(self):
        line = sparkline(list(range(200)), width=40)
        assert len(line) == 40
        assert set(line) <= set("▁▂▃▄▅▆▇█")

    def test_sparkline_flat_series(self):
        line = sparkline([3.0] * 50, width=10)
        assert line == "▁" * 10

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                           max_size=200),
           buckets=st.integers(1, 50))
    def test_downsample_preserves_bounds(self, values, buckets):
        out = downsample(values, buckets)
        assert out
        assert min(out) >= min(values) - 1e-9
        assert max(out) <= max(values) + 1e-9


# -- the float arithmetic is numpy's, bit for bit -----------------------------

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def float_vectors(draw, max_size=400):
    """Floats of mixed sign and magnitude (so summation order shows in the
    last bits), with up to three specials dropped in."""
    n = draw(st.integers(0, max_size))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))  # simlint: disable=unseeded-random -- seeded by Hypothesis' draw; it builds test inputs, not sim state
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-4, 6)
              for _ in range(n)]
    for index, special in draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)),
                      st.sampled_from(SPECIALS)), max_size=3)):
        if values:
            values[index] = special
    return values


def same(got, want):
    """``==`` with signed zero told apart and NaN equal to NaN."""
    return [repr(float(v)) for v in got] == [repr(float(v)) for v in want]


class TestNumpyOrder:
    @settings(max_examples=300, deadline=None)
    @given(values=float_vectors())
    def test_mean_and_std_are_numpys(self, values):
        series = Series.of("s", values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert same([series.mean], [np.mean(values)])
            if len(values) > 1:
                assert same([series.std], [np.std(values, ddof=1)])

    @pytest.mark.parametrize("values", [[-0.0], [-0.0] * 7, [-0.0] * 8,
                                        [-0.0] * 200, [0.0, -0.0]])
    def test_a_sum_of_negative_zeros_is_positive(self, values):
        assert same([Series.of("z", values).mean], [np.mean(values)])
        assert same([Series.of("z", values).mean], [0.0])

    @settings(max_examples=200, deadline=None)
    @given(values=float_vectors(), buckets=st.integers(1, 130))
    def test_downsample_is_numpys(self, values, buckets):
        n = len(values)
        if n > buckets:
            edges = np.linspace(0, n, buckets + 1, dtype=int)
            assert ([math.floor(x) for x in linspace(0, n, buckets + 1)]
                    == edges.tolist())
            arr = np.asarray(values, dtype=float)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = [arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:])
                        if b > a]
        else:
            want = values if buckets > 0 else []
        assert same(downsample(values, buckets), want)

    @settings(max_examples=300, deadline=None)
    @given(ends=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
           equal=st.booleans(), num=st.integers(0, 100),
           xp=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
           fp=st.lists(st.one_of(st.floats(-1e6, 1e6),
                                 st.sampled_from(SPECIALS)),
                       min_size=8, max_size=8))
    def test_chart_linspace_and_interp_are_numpys(self, ends, equal, num,
                                                  xp, fp):
        start, stop = ends[0], ends[0] if equal else ends[1]
        xs = linspace(start, stop, num)
        assert same(xs, np.linspace(start, stop, num))
        xp = sorted(xp)
        fp = fp[:len(xp)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = np.interp(np.asarray(xs, dtype=float), xp, fp)
        assert same([interp(x, xp, fp) for x in xs], want)

    def test_log10_is_numpys_on_powers_of_ten(self):
        for k in range(12):
            assert math.log10(10 ** k) == np.log10(float(10 ** k))
