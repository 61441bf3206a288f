"""Large-scale campaign characterization through the sharded runner.

The paper's testbed saw hundreds of jobs; this experiment drives the
:mod:`repro.workloads.scale` engine at production scale — defaulting to
10⁵ arrivals, configurable up to 10⁷ — and proves the bounded-memory
fold contract end to end: every cell synthesizes one *shard* of the
campaign lazily and returns only its :class:`CampaignStats` aggregate
dict (never per-job records), and ``merge`` folds those dicts with the
exact sketch-merge algebra, so serial, ``--parallel N``, and
cache-served runs render byte-identically.

Shards are independent substreams of the arrival process (distinct RNG
stream names under one seed).  Superposition of independent Poisson
processes is again Poisson, so folding K shards of N/K jobs is the
statistical twin of one N-job pass at K× the rate — and the CI scale
gate (``repro scale verify``) separately asserts the *exact* streamed
vs. eager equivalence on a single stream.

Not part of ``repro run all`` (the golden render pins the paper's 11
experiments); run it explicitly::

    repro run scale-campaign --quick
    repro run scale-campaign --parallel 4   # byte-identical stdout
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from ..metrics import AsciiTable
from ..runner.spec import CellKey, ExperimentSpec, register
from .common import ConfigCodec, ExperimentResult

if TYPE_CHECKING:
    from ..workloads.scale import ScaleConfig


@dataclass
class ScaleCampaignConfig(ConfigCodec):
    """Sharded campaign shape (flat: every field is a cache-key field)."""

    jobs: int = 100_000
    shards: int = 4
    seed: int = 2006
    base_rate: float = 50.0
    curve: str = "diurnal"
    runtime_dist: str = "lognormal"
    users: int = 1_000_000
    interactive_fraction: float = 0.6


def _shard_jobs(config: ScaleCampaignConfig) -> List[int]:
    """Per-shard job counts (remainder spread over the first shards)."""
    base, extra = divmod(config.jobs, config.shards)
    return [base + (1 if i < extra else 0) for i in range(config.shards)]


def _shard_config(config: ScaleCampaignConfig, jobs: int) -> ScaleConfig:
    from ..workloads.scale import ScaleConfig

    return ScaleConfig(
        jobs=jobs,
        base_rate=config.base_rate,
        curve=config.curve,
        runtime_dist=config.runtime_dist,
        users=config.users,
        interactive_fraction=config.interactive_fraction,
    )


def plan_cells(config: ScaleCampaignConfig) -> List[CellKey]:
    return [(f"shard{i:02d}",) for i in range(config.shards)]


def run_cell(config: ScaleCampaignConfig, key: CellKey) -> Dict:
    """Generate one shard lazily; return its bounded aggregate dict.

    The payload is the *only* thing that crosses the process/cache
    boundary: O(sketch), never per-job records.
    """
    from ..sim import RandomStreams
    from ..workloads.scale import CampaignStats, iter_campaign

    index = int(key[0].removeprefix("shard"))
    shard = _shard_config(config, _shard_jobs(config)[index])
    rng = RandomStreams(config.seed)
    stats = CampaignStats()
    for arrival in iter_campaign(rng, shard, stream=f"campaign/{index}"):
        stats.observe(arrival)
    return stats.to_dict()


def merge_cells(config: ScaleCampaignConfig,
                payloads: Dict[CellKey, Dict]) -> ExperimentResult:
    # The sketch fold lives with the generator, so merging shards (even
    # cache-served ones) loads repro.workloads; not part of `run all`.
    from ..workloads.scale import CampaignStats

    result = ExperimentResult(
        experiment_id="scale-campaign",
        title="Large-scale campaign characterization "
              f"({config.jobs:,} jobs, {config.shards} shards)",
        paper_reference="ROADMAP item 1: production-scale load beyond "
                        "the paper's testbed")

    merged = CampaignStats()
    shard_rows = []
    for key in plan_cells(config):
        stats = CampaignStats.from_dict(payloads[key])
        shard_rows.append((key[0], stats))
        merged.merge(stats)

    shards = AsciiTable(
        ["shard", "jobs", "interactive", "rate (jobs/s)", "runtime p50 (s)"],
        title="Per-shard aggregates (each cell returns O(sketch) state)")
    for name, stats in shard_rows:
        shards.add_row(name, stats.jobs, stats.interactive,
                       round(stats.arrival_rate, 2),
                       round(stats.runtime_sketch.quantile(50), 1))
    result.tables.append(shards)

    summary = AsciiTable(["metric", "value"], title="Merged campaign")
    summary.add_row("jobs", merged.jobs)
    summary.add_row("interactive fraction",
                    round(merged.interactive / merged.jobs, 4))
    summary.add_row("shared fraction",
                    round(merged.shared / merged.jobs, 4))
    summary.add_row("runtime p50 (s)",
                    round(merged.runtime_sketch.quantile(50), 1))
    summary.add_row("runtime p95 (s)",
                    round(merged.runtime_sketch.quantile(95), 1))
    summary.add_row("runtime p99 (s)",
                    round(merged.runtime_sketch.quantile(99), 1))
    summary.add_row("gap p50 (s)",
                    round(merged.gap_sketch.quantile(50), 4))
    result.tables.append(summary)
    result.data["campaign"] = merged.to_dict()

    result.check(
        "merged job count equals the planned campaign size",
        merged.jobs == config.jobs,
        f"{merged.jobs} == {config.jobs}")
    frac = merged.interactive / merged.jobs
    result.check(
        "interactive fraction lands near the configured mix",
        abs(frac - config.interactive_fraction) < 0.02,
        f"{frac:.4f} vs {config.interactive_fraction}")
    p50 = merged.runtime_sketch.quantile(50)
    p99 = merged.runtime_sketch.quantile(99)
    result.check(
        "runtime distribution is heavy-tailed (p99 >> p50)",
        p99 > 5.0 * p50,
        f"p50={p50:.1f}s p99={p99:.1f}s")
    result.check(
        "sketch fold preserved exact counts (sum of shard counts)",
        merged.runtime_sketch.count == config.jobs,
        f"sketch count {merged.runtime_sketch.count}")
    return result


register(ExperimentSpec(
    experiment_id="scale-campaign",
    config_factory=ScaleCampaignConfig,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="scale-v3",
    quick_config_factory=lambda: ScaleCampaignConfig(jobs=8_000, shards=4),
))
