"""Regenerates the ablation studies over the paper's design choices:

* CA/CS buffer size (the §6.2 crossover explanation);
* reliable-mode retry interval under injected outages (§4 knobs);
* PerformanceLoss sweep beyond the paper's {10, 25} (§6.3);
* degree of multiprogramming > 2 (§5.2/§7 future work);
* fair-share half-life (§5.1 priority restoration).
"""

from repro.experiments import (
    BufferSweepConfig,
    DegreeSweepConfig,
    HalfLifeSweepConfig,
    PerformanceLossSweepConfig,
    RetrySweepConfig,
)

from conftest import regenerate


def test_bench_ablation_buffer(benchmark):
    config = BufferSweepConfig(sequences=200)
    regenerate(benchmark, "ablation-buffer", config)


def test_bench_ablation_retry(benchmark):
    regenerate(benchmark, "ablation-retry", RetrySweepConfig())


def test_bench_ablation_performance_loss(benchmark):
    config = PerformanceLossSweepConfig(iterations=300)
    regenerate(benchmark, "ablation-pl", config)


def test_bench_ablation_degree(benchmark):
    config = DegreeSweepConfig(iterations=120)
    regenerate(benchmark, "ablation-degree", config)


def test_bench_ablation_half_life(benchmark):
    regenerate(benchmark, "ablation-halflife", HalfLifeSweepConfig())


def test_bench_fairshare_saturation(benchmark):
    regenerate(benchmark, "fairshare-saturation")
