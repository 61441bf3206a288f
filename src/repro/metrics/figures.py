"""Terminal figures: multi-series ASCII line charts with axes.

The experiment harness renders each paper figure as a braille-free,
plain-character chart so the *shape* the paper plots (who is above whom,
where curves cross) is visible straight in the terminal or a CI log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .series import Series, downsample

#: Glyphs assigned to series in order.
SERIES_GLYPHS = "*o+x#@%&"


@dataclass
class AsciiChart:
    """A fixed-size character canvas with y axis labels and a legend."""

    title: str
    width: int = 64
    height: int = 16
    y_label: str = ""
    x_label: str = ""
    #: name -> sample vector (downsampled onto the canvas width).
    series: Dict[str, Sequence[float]] = field(default_factory=dict)
    log_y: bool = False

    def add_series(self, name: str, values: Sequence[float]) -> None:
        if not values:
            raise ValueError(f"series {name!r} is empty")
        self.series[name] = list(values)

    # -- rendering -----------------------------------------------------------
    def _bounds(self) -> Tuple[float, float]:
        lo = min(min(v) for v in self.series.values())
        hi = max(max(v) for v in self.series.values())
        if self.log_y:
            lo = max(lo, 1e-12)
            hi = max(hi, lo * 1.0001)
            return math.log10(lo), math.log10(hi)
        if hi - lo < 1e-12:
            hi = lo + 1.0
        return lo, hi

    def _scale(self, value: float, lo: float, hi: float) -> int:
        if self.log_y:
            value = math.log10(max(value, 1e-12))
        fraction = (value - lo) / (hi - lo)
        fraction = min(max(fraction, 0.0), 1.0)
        return int(round(fraction * (self.height - 1)))

    def render(self) -> str:
        if not self.series:
            raise ValueError("no series to render")
        lo, hi = self._bounds()
        canvas = [[" "] * self.width for _ in range(self.height)]

        for index, (name, values) in enumerate(self.series.items()):
            glyph = SERIES_GLYPHS[index % len(SERIES_GLYPHS)]
            points = downsample(values, self.width)
            # Spread the points across the full width.
            for col in range(len(points)):
                x = int(col * (self.width - 1) / max(len(points) - 1, 1))
                y = self._scale(points[col], lo, hi)
                row = self.height - 1 - y
                canvas[row][x] = glyph

        def fmt(value: float) -> str:
            if self.log_y:
                value = 10 ** value
            magnitude = abs(value)
            if magnitude != 0 and (magnitude < 0.01 or magnitude >= 1e5):
                return f"{value:.1e}"
            return f"{value:.3g}"

        top_label, bottom_label = fmt(hi), fmt(lo)
        gutter = max(len(top_label), len(bottom_label)) + 1
        out: List[str] = [self.title]
        if self.y_label:
            out.append(f"({self.y_label})")
        for row_index, row in enumerate(canvas):
            if row_index == 0:
                label = top_label.rjust(gutter)
            elif row_index == self.height - 1:
                label = bottom_label.rjust(gutter)
            else:
                label = " " * gutter
            out.append(f"{label}|{''.join(row)}")
        out.append(" " * gutter + "+" + "-" * self.width)
        if self.x_label:
            out.append(" " * (gutter + 1) + self.x_label)
        legend = "   ".join(
            f"{SERIES_GLYPHS[i % len(SERIES_GLYPHS)]} {name}"
            for i, name in enumerate(self.series))
        out.append(" " * (gutter + 1) + legend)
        return "\n".join(out)


def series_chart(title: str, series: Mapping[str, Series],
                 y_label: str = "", x_label: str = "",
                 log_y: bool = False, width: int = 64,
                 height: int = 16) -> str:
    """Convenience: chart a dict of :class:`Series` objects."""
    chart = AsciiChart(title=title, width=width, height=height,
                       y_label=y_label, x_label=x_label, log_y=log_y)
    for name, values in series.items():
        chart.add_series(name, list(values.values))
    return chart.render()


def size_profile_chart(title: str,
                       by_mech: Mapping[str, Mapping[int, Series]],
                       sizes: Sequence[int], y_label: str = "ms",
                       width: int = 64, height: int = 14) -> str:
    """Chart of mean round-trip vs payload size, one curve per mechanism
    (the summary view of Figures 6/7)."""
    import numpy as np

    chart = AsciiChart(title=title, width=width, height=height,
                       y_label=y_label, x_label="payload size "
                       f"({' -> '.join(str(s) for s in sizes)} B, log x)",
                       log_y=True)
    for name, per_size in by_mech.items():
        means = [per_size[s].mean * 1e3 for s in sizes]
        # Interpolate to the canvas width on a log-size axis.
        log_sizes = np.log10(np.asarray(sizes, dtype=float))
        xs = np.linspace(log_sizes[0], log_sizes[-1], width)
        interpolated = np.interp(xs, log_sizes, means)
        chart.add_series(name, [float(v) for v in interpolated])
    return chart.render()
