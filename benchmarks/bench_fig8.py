"""Regenerates Figure 8 — VM load overhead (CPU and I/O per iteration).

Paper statistics: CPU 0.921 s (ref) -> 1.004 s (PL=10) -> 1.132 s (PL=25);
I/O 6.06 ms -> 6.32 ms -> 6.61 ms; exclusive and shared-alone
indistinguishable.
"""

from repro.experiments import Fig8Config

from conftest import regenerate


def test_bench_fig8(benchmark):
    config = Fig8Config(iterations=1000)  # the paper's full 1000 iterations
    regenerate(benchmark, "fig8", config)
