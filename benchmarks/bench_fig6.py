"""Regenerates Figure 6 — I/O streaming round trips, campus grid.

Paper shape: fast best everywhere; glogin poor; reliable slowest at 10 B
but beats ssh at 10 KB.
"""

from repro.experiments import StreamingConfig

from conftest import regenerate


def test_bench_fig6(benchmark):
    config = StreamingConfig(scenario="campus", sequences=500)
    regenerate(benchmark, "fig6", config)
