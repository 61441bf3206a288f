"""The large-campaign workload engine (repro.workloads.scale), its CLI
(``repro scale``), the sharded scale-campaign experiment, and the
quantile sketch that makes its statistics mergeable."""

from __future__ import annotations

import itertools
import json
import math

import pytest

from repro.obs.telemetry import QuantileSketch
from repro.sim import RandomStreams
from repro.workloads import (
    CampaignStats,
    ScaleConfig,
    iter_campaign,
    iter_mix,
    generate_mix,
    MixConfig,
    summarize_campaign,
)


class TestQuantileSketch:
    def test_relative_accuracy_vs_exact(self):
        """Every reported quantile is within the alpha bound of exact."""
        gen = RandomStreams(77).stream("sketch/acc")
        values = sorted(float(v) for v in gen.lognormal(3.0, 1.5, size=50_000))
        sketch = QuantileSketch(alpha=0.01)
        for v in values:
            sketch.observe(v)
        for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = values[min(len(values) - 1,
                               max(0, math.ceil(len(values) * q / 100) - 1))]
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.011), q

    def test_merge_equals_whole_stream(self):
        """Bucket-count merges are exact: shards fold to the one-pass sketch."""
        gen = RandomStreams(78).stream("sketch/merge")
        values = [float(v) for v in gen.exponential(10.0, size=8_000)]
        whole = QuantileSketch()
        for v in values:
            whole.observe(v)
        merged = QuantileSketch()
        for i in range(0, len(values), 1000):
            shard = QuantileSketch()
            for v in values[i:i + 1000]:
                shard.observe(v)
            merged.merge(shard)
        assert merged.to_dict() == whole.to_dict()
        for q in (50, 95, 99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_negative_and_zero_values(self):
        sketch = QuantileSketch()
        for v in (-100.0, -1.0, 0.0, 0.0, 1.0, 100.0):
            sketch.observe(v)
        assert sketch.quantile(0) == -100.0
        assert sketch.quantile(100) == 100.0
        assert sketch.quantile(50) == pytest.approx(0.0, abs=1e-9)

    def test_dict_round_trip(self):
        sketch = QuantileSketch(alpha=0.02)
        for v in (-3.0, 0.0, 5.0, 7.0):
            sketch.observe(v)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(95) == sketch.quantile(95)

    def test_empty_sketch_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(50))

    def test_mismatched_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


class TestScaleEngine:
    def test_deterministic(self):
        config = ScaleConfig(jobs=3_000)
        a = summarize_campaign(iter_campaign(RandomStreams(5), config))
        b = summarize_campaign(iter_campaign(RandomStreams(5), config))
        assert a.to_dict() == b.to_dict()

    def test_generates_exactly_n_jobs_with_synthetic_identities(self):
        config = ScaleConfig(jobs=500, users=1_000_000)
        arrivals = list(iter_campaign(RandomStreams(6), config,
                                      stream="camp"))
        assert len(arrivals) == 500
        assert [a.job.job_id for a in arrivals] == \
               [f"camp-{i:08d}" for i in range(500)]
        assert all(a.job.owner.startswith("user-") for a in arrivals)
        times = [a.at for a in arrivals]
        assert times == sorted(times)

    def test_is_lazy_in_campaign_size(self):
        """A 10⁹-job campaign yields its head without being generated."""
        config = ScaleConfig(jobs=1_000_000_000)
        head = list(itertools.islice(
            iter_campaign(RandomStreams(7), config), 50))
        assert len(head) == 50

    @pytest.mark.parametrize("curve", ["constant", "diurnal", "flash"])
    @pytest.mark.parametrize("dist", ["exponential", "lognormal", "pareto"])
    def test_every_curve_and_distribution(self, curve, dist):
        config = ScaleConfig(jobs=300, curve=curve, runtime_dist=dist)
        stats = summarize_campaign(iter_campaign(RandomStreams(8), config))
        assert stats.jobs == 300
        assert stats.runtime_sketch.quantile(100) <= config.runtime_cap

    def test_flash_curve_bursts_above_baseline(self):
        config = ScaleConfig(jobs=2_000, curve="flash", base_rate=10.0)
        stats = summarize_campaign(iter_campaign(RandomStreams(9), config))
        # Bursts run at 20x base: the observed mean rate must exceed it.
        assert stats.arrival_rate > config.base_rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScaleConfig(curve="bogus").validate()
        with pytest.raises(ValueError):
            ScaleConfig(runtime_dist="uniform").validate()
        with pytest.raises(ValueError):
            ScaleConfig(pareto_shape=1.0).validate()
        with pytest.raises(ValueError):
            ScaleConfig(diurnal_amplitude=1.5).validate()

    def test_chunk_size_does_not_change_the_stream(self):
        """The batch size is an amortisation knob, not a semantic one."""
        small = ScaleConfig(jobs=400, chunk=16)
        large = ScaleConfig(jobs=400, chunk=4096)
        a = summarize_campaign(iter_campaign(RandomStreams(10), small))
        b = summarize_campaign(iter_campaign(RandomStreams(10), large))
        assert a.to_dict() == b.to_dict()


class TestCampaignStats:
    def _arrivals(self, n=1_000, seed=11):
        return list(iter_campaign(RandomStreams(seed), ScaleConfig(jobs=n)))

    def test_streamed_equals_eager(self):
        config = ScaleConfig(jobs=2_000)
        eager = summarize_campaign(
            list(iter_campaign(RandomStreams(12), config)))
        streamed = summarize_campaign(
            iter_campaign(RandomStreams(12), config))
        assert streamed.to_dict() == eager.to_dict()

    def test_split_fold_matches_whole_fold(self):
        arrivals = self._arrivals()
        whole = summarize_campaign(arrivals)
        left = summarize_campaign(arrivals[:400])
        right = summarize_campaign(arrivals[400:])
        merged = left.merge(right)
        assert merged.jobs == whole.jobs
        # Counts and sketch buckets are exact; the float *sum* is only
        # reassociated, so it agrees to ulp-level precision.
        assert merged.total_runtime == \
            pytest.approx(whole.total_runtime, rel=1e-12)
        assert merged.first_at == whole.first_at
        assert merged.last_at == whole.last_at
        merged_sk = merged.runtime_sketch.to_dict()
        whole_sk = whole.runtime_sketch.to_dict()
        assert merged_sk.pop("total") == \
            pytest.approx(whole_sk.pop("total"), rel=1e-12)
        assert merged_sk == whole_sk
        # The one seam gap between the halves is deliberately dropped.
        assert merged.gap_sketch.count == whole.gap_sketch.count - 1

    def test_dict_round_trip(self):
        stats = summarize_campaign(self._arrivals(300))
        clone = CampaignStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.arrival_rate == stats.arrival_rate

    def test_empty_stats(self):
        stats = CampaignStats()
        assert stats.jobs == 0 and stats.span == 0.0
        assert stats.arrival_rate == 0.0
        payload = stats.to_dict()
        assert payload["first_at"] is None and payload["last_at"] is None
        assert CampaignStats.from_dict(payload).to_dict() == payload


class TestLazyMix:
    def test_iter_mix_matches_generate_mix(self):
        """The lazy merge is value-identical to the eager two-pass path."""
        config = MixConfig(horizon=8_000, parallel_fraction=0.3)
        eager = generate_mix(RandomStreams(21), config)
        lazy = list(iter_mix(RandomStreams(21), config))
        assert [(a.at, a.job.job_id, a.job.owner) for a in eager] == \
               [(a.at, a.job.job_id, a.job.owner) for a in lazy]

    def test_iter_mix_is_consumable_incrementally(self):
        stream = iter_mix(RandomStreams(22), MixConfig(horizon=50_000))
        head = list(itertools.islice(stream, 10))
        assert len(head) == 10
        assert [a.at for a in head] == sorted(a.at for a in head)


class TestScaleCampaignExperiment:
    def test_cell_payloads_are_bounded_aggregates(self):
        """A cell's payload size must not scale with its job count."""
        from repro.experiments.scale_campaign import (
            ScaleCampaignConfig, plan_cells, run_cell)

        small = ScaleCampaignConfig(jobs=400, shards=1)
        large = ScaleCampaignConfig(jobs=8_000, shards=1)
        small_payload = run_cell(small, plan_cells(small)[0])
        large_payload = run_cell(large, plan_cells(large)[0])
        small_size = len(json.dumps(small_payload))
        large_size = len(json.dumps(large_payload))
        assert large_payload["jobs"] == 8_000
        # 20x the jobs, same-order payload (sketch buckets only).
        assert large_size < 4 * small_size

    def test_quick_experiment_passes_and_merges_exact_counts(self):
        from repro.runner import run_experiment

        result = run_experiment("scale-campaign", quick=True)
        assert result.passed
        campaign = result.data["campaign"]
        assert campaign["jobs"] == 8_000
        assert campaign["runtime_sketch"]["count"] == 8_000

    def test_excluded_from_run_all(self):
        """``repro run all`` stays pinned to the paper's canonical list so
        the golden render never changes when opt-in specs register."""
        from repro.experiments.cli import CANONICAL_ORDER
        from repro.runner import all_specs

        assert "scale-campaign" in all_specs()
        assert "scale-campaign" not in CANONICAL_ORDER


class TestScaleCli:
    def test_verify_gate_passes(self, capsys):
        from repro.experiments.scalecmd import scale_main

        rc = scale_main(["verify", "--jobs", "2000"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_generate_then_replay(self, tmp_path, capsys):
        from repro.experiments.scalecmd import scale_main

        trace = str(tmp_path / "campaign.trace")
        summary = str(tmp_path / "campaign.json")
        assert scale_main(["generate", "--jobs", "1500", "--out", trace,
                           "--curve", "flash"]) == 0
        assert scale_main(["replay", trace, "--json", summary]) == 0
        out = capsys.readouterr().out
        assert "1,500 jobs" in out
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert payload["campaign"]["jobs"] == 1500
        assert payload["header"]["version"] == 2

    def test_bench_scale_lane_writes_artifact(self, tmp_path, capsys):
        from repro.experiments.benchcmd import bench_main

        path = str(tmp_path / "BENCH_scale.json")
        rc = bench_main(["--scale", "--scale-jobs", "3000",
                         "--rounds", "2", "--json", path])
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_scale.json").read_text())
        assert payload["schema"] == "repro-bench-scale/3"
        assert set(payload) == {"schema", "python", "platform", "results"}
        results = payload["results"]
        assert results["jobs"] == 3000
        assert results["jobs_per_sec"] > 0
        assert results["traced_peak_bytes"] > 0
        assert results["ru_maxrss_kb"] > 0
