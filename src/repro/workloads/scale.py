"""Million-job workload engine: lazy arrival streams, O(1) aggregation.

The paper's testbed served a few hundred jobs; ROADMAP item 1 asks for
the production shape of that load — **10⁵–10⁷ arrivals** from
million-user populations — without ever materialising per-job records.
This module is the generator half of that engine:

* :func:`iter_campaign` lazily synthesizes a campaign described by a
  :class:`ScaleConfig`: a non-homogeneous Poisson arrival process
  (constant, diurnal million-user curve, or bursty flash crowds —
  realised by Lewis–Shedler thinning against the curve's peak rate),
  heavy-tailed runtimes (exponential, lognormal, or bounded Pareto), and
  a mixed batch/interactive/MPI population.
* :class:`CampaignStats` folds any arrival stream into bounded state:
  exact counts/sums plus :class:`~repro.obs.telemetry.QuantileSketch`
  summaries of runtimes and inter-arrival gaps.  Stats merge exactly,
  so independently-generated shards fold to the same aggregates as one
  sequential pass — the property the sharded runner's
  ``plan/run_cell/merge`` seam and the CI streamed-vs-eager gate rely
  on.

Determinism: every random draw comes from a *fixed* set of named
substreams (no per-job stream names, which would grow the stream cache
linearly), each drawn ahead in small blocks by
:meth:`RandomStreams.draws <repro.sim.rng.RandomStreams.draws>` — the
same values, in the same order, as one scalar draw per value.  A second
campaign drawn from the same ``RandomStreams`` and ``stream`` continues
each substream where the first stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from ..jdl import (
    JobCategory,
    JobDescription,
    JobFlavor,
    MachineAccess,
    StreamingMode,
)
from ..sim import RandomStreams
from .mixes import JobArrival

#: Arrival-curve names accepted by :class:`ScaleConfig`.
CURVES = ("constant", "diurnal", "flash")

#: Runtime-distribution names accepted by :class:`ScaleConfig`.
RUNTIME_DISTS = ("exponential", "lognormal", "pareto")


@dataclass
class ScaleConfig:
    """Shape of a synthesized large-scale campaign."""

    #: Total arrivals to generate.
    jobs: int = 1_000_000
    #: Baseline arrival rate (jobs/second of sim time).
    base_rate: float = 100.0
    #: Arrival curve: one of :data:`CURVES`.
    curve: str = "diurnal"
    #: Diurnal curve: period and relative swing (rate varies by
    #: ``1 ± amplitude`` across the day, peaking at ``peak_time``).
    day_seconds: float = 86_400.0
    diurnal_amplitude: float = 0.8
    peak_time: float = 14 * 3600.0
    #: Flash-crowd curve: a burst of ``flash_multiplier`` × base rate for
    #: ``flash_duration`` seconds every ``flash_every`` seconds.
    flash_every: float = 3_600.0
    flash_duration: float = 120.0
    flash_multiplier: float = 20.0
    #: Synthetic user population (owners are drawn uniformly from it).
    users: int = 1_000_000
    #: Population mix.
    interactive_fraction: float = 0.6
    shared_fraction: float = 0.7
    parallel_fraction: float = 0.05
    max_nodes: int = 8
    performance_loss: int = 10
    #: Runtime model: one of :data:`RUNTIME_DISTS`, with per-class means.
    runtime_dist: str = "lognormal"
    batch_runtime_mean: float = 1_800.0
    interactive_runtime_mean: float = 120.0
    #: Lognormal shape (sigma of the underlying normal).
    lognormal_sigma: float = 1.5
    #: Pareto tail index (must be > 1 for a finite mean).
    pareto_shape: float = 1.8
    #: Hard cap on any runtime (keeps bounded-Pareto moments finite).
    runtime_cap: float = 172_800.0

    def validate(self) -> None:
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0")
        if self.curve not in CURVES:
            raise ValueError(f"curve must be one of {CURVES}, "
                             f"got {self.curve!r}")
        if self.runtime_dist not in RUNTIME_DISTS:
            raise ValueError(f"runtime_dist must be one of {RUNTIME_DISTS}, "
                             f"got {self.runtime_dist!r}")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.pareto_shape <= 1.0:
            raise ValueError("pareto_shape must be > 1 (finite mean)")

    # -- the arrival-rate curve ------------------------------------------
    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (jobs/s) at sim time ``t``."""
        if self.curve == "constant":
            return self.base_rate
        if self.curve == "diurnal":
            phase = 2.0 * math.pi * (t - self.peak_time) / self.day_seconds
            return self.base_rate * (1.0
                                     + self.diurnal_amplitude * math.cos(phase))
        # flash: baseline with periodic multiplicative bursts.
        in_burst = (t % self.flash_every) < self.flash_duration
        return self.base_rate * (self.flash_multiplier if in_burst else 1.0)

    def peak_rate(self) -> float:
        """An upper bound of :meth:`rate_at` (the thinning envelope)."""
        if self.curve == "constant":
            return self.base_rate
        if self.curve == "diurnal":
            return self.base_rate * (1.0 + self.diurnal_amplitude)
        return self.base_rate * self.flash_multiplier


def _runtime_draw(rng: RandomStreams, config: ScaleConfig, name: str,
                  mean: float) -> Callable[[], float]:
    """A sampler for the configured runtime distribution with the
    requested mean (each class keeps its calibrated average load)."""
    if config.runtime_dist == "exponential":
        return rng.draws(name, "exponential", mean)
    if config.runtime_dist == "lognormal":
        sigma = config.lognormal_sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
        mu = math.log(mean) - 0.5 * sigma * sigma
        return rng.draws(name, "lognormal", mu, sigma)
    # Bounded Pareto: scale x_m chosen so the *unbounded* mean matches
    # (shape/(shape-1)) * x_m = mean; the cap then trims the far tail.
    shape = config.pareto_shape
    x_m = mean * (shape - 1.0) / shape
    pareto = rng.draws(name, "pareto", shape)
    return lambda: (pareto() + 1.0) * x_m


def iter_campaign(rng: RandomStreams, config: Optional[ScaleConfig] = None,
                  stream: str = "scale",
                  start: float = 0.0) -> Iterator[JobArrival]:
    """Lazily synthesize a campaign's arrivals in time order.

    ``stream`` namespaces the RNG substreams (shards use distinct names
    to stay independent); ``start`` offsets the first arrival, letting a
    sharded plan cover consecutive wall-time windows.
    """
    config = config or ScaleConfig()
    config.validate()

    peak = config.peak_rate()
    gaps = rng.draws(f"{stream}/gap", "exponential", 1.0 / peak)
    thins = rng.draws(f"{stream}/thin", "uniform", 0.0, 1.0)
    classes = rng.draws(f"{stream}/class", "uniform", 0.0, 1.0)
    shareds = rng.draws(f"{stream}/shared", "uniform", 0.0, 1.0)
    parallels = rng.draws(f"{stream}/parallel", "uniform", 0.0, 1.0)
    nodes_draw = rng.draws(f"{stream}/nodes", "uniform", 0.0, 1.0)
    users = rng.draws(f"{stream}/user", "uniform", 0.0, 1.0)
    batch_rt = _runtime_draw(rng, config, f"{stream}/run/batch",
                             config.batch_runtime_mean)
    inter_rt = _runtime_draw(rng, config, f"{stream}/run/int",
                             config.interactive_runtime_mean)

    t = start
    emitted = 0
    while emitted < config.jobs:
        # Lewis–Shedler thinning: candidate points at the peak rate,
        # accepted with probability rate(t)/peak — an exact sampler for
        # the non-homogeneous Poisson process defined by rate_at().
        t += gaps()
        if thins() * peak >= config.rate_at(t):
            continue
        interactive = classes() < config.interactive_fraction
        owner = f"user-{int(users() * config.users):07d}"
        if interactive:
            runtime = min(max(inter_rt(), 1.0), config.runtime_cap)
            shared = shareds() < config.shared_fraction
            parallel = parallels() < config.parallel_fraction
            nodes, flavor = 1, JobFlavor.SEQUENTIAL
            if parallel and config.max_nodes > 1:
                nodes = 2 + int(nodes_draw() * (config.max_nodes - 1))
                flavor = JobFlavor.MPICH_G2
            job = JobDescription(
                executable="interactive_sim",
                owner=owner,
                category=JobCategory.INTERACTIVE,
                flavor=flavor,
                node_number=nodes,
                machine_access=(MachineAccess.SHARED if shared
                                else MachineAccess.EXCLUSIVE),
                performance_loss=config.performance_loss if shared else 0,
                streaming_mode=StreamingMode.FAST,
                estimated_runtime=runtime,
                job_id=f"{stream}-{emitted:08d}",
            )
        else:
            runtime = min(max(batch_rt(), 1.0), config.runtime_cap)
            job = JobDescription(
                executable="batch_sim",
                owner=owner,
                category=JobCategory.BATCH,
                estimated_runtime=runtime,
                job_id=f"{stream}-{emitted:08d}",
            )
        yield JobArrival(t, job, runtime)
        emitted += 1


class CampaignStats:
    """Bounded streaming aggregates of an arrival stream.

    Everything a scale experiment reports fits in O(sketch) memory:
    exact class/access/flavor counts, exact runtime totals, and
    mergeable quantile sketches for runtimes and inter-arrival gaps.
    ``merge`` is exact (sketch bucket counts add), so shard-and-fold
    equals one sequential pass — the runner's determinism contract.
    """

    __slots__ = ("jobs", "batch", "interactive", "shared", "parallel",
                 "node_count", "first_at", "last_at", "total_runtime",
                 "runtime_sketch", "gap_sketch", "_prev_at")

    def __init__(self) -> None:
        self.jobs = 0
        self.batch = 0
        self.interactive = 0
        self.shared = 0
        self.parallel = 0
        self.node_count = 0
        self.first_at = math.inf
        self.last_at = -math.inf
        self.total_runtime = 0.0
        from ..obs.telemetry import QuantileSketch

        self.runtime_sketch = QuantileSketch()
        self.gap_sketch = QuantileSketch()
        self._prev_at: Optional[float] = None

    def observe(self, arrival: JobArrival) -> None:
        job = arrival.job
        self.jobs += 1
        if job.category is JobCategory.INTERACTIVE:
            self.interactive += 1
        else:
            self.batch += 1
        if job.machine_access is MachineAccess.SHARED:
            self.shared += 1
        if job.flavor is not JobFlavor.SEQUENTIAL:
            self.parallel += 1
        self.node_count += job.node_number
        if arrival.at < self.first_at:
            self.first_at = arrival.at
        if arrival.at > self.last_at:
            self.last_at = arrival.at
        self.total_runtime += arrival.runtime
        self.runtime_sketch.observe(arrival.runtime)
        if self._prev_at is not None:
            self.gap_sketch.observe(arrival.at - self._prev_at)
        self._prev_at = arrival.at

    # -- fold algebra ----------------------------------------------------
    def merge(self, other: "CampaignStats") -> "CampaignStats":
        """Fold ``other`` (a later/independent shard) into this one.

        Gap sketches merge their *within-shard* gaps; the single seam
        gap between two shards is intentionally not synthesized (shards
        of a sharded plan cover disjoint windows, so the seam gap is a
        plan artifact, not workload signal).
        """
        self.jobs += other.jobs
        self.batch += other.batch
        self.interactive += other.interactive
        self.shared += other.shared
        self.parallel += other.parallel
        self.node_count += other.node_count
        self.first_at = min(self.first_at, other.first_at)
        self.last_at = max(self.last_at, other.last_at)
        self.total_runtime += other.total_runtime
        self.runtime_sketch.merge(other.runtime_sketch)
        self.gap_sketch.merge(other.gap_sketch)
        self._prev_at = None  # seam: do not bridge shard boundaries
        return self

    @property
    def span(self) -> float:
        """Seconds between first and last arrival (0 when < 2 jobs)."""
        if self.jobs < 2:
            return 0.0
        return self.last_at - self.first_at

    @property
    def arrival_rate(self) -> float:
        """Mean observed arrival rate over the campaign span."""
        if self.span <= 0.0:
            return 0.0
        return (self.jobs - 1) / self.span

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able, mergeable form (the cell payload of scale runs)."""
        return {
            "jobs": self.jobs,
            "batch": self.batch,
            "interactive": self.interactive,
            "shared": self.shared,
            "parallel": self.parallel,
            "node_count": self.node_count,
            "first_at": self.first_at if self.jobs else None,
            "last_at": self.last_at if self.jobs else None,
            "total_runtime": self.total_runtime,
            "runtime_sketch": self.runtime_sketch.to_dict(),
            "gap_sketch": self.gap_sketch.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignStats":
        from ..obs.telemetry import QuantileSketch

        stats = cls()
        stats.jobs = int(data["jobs"])
        stats.batch = int(data["batch"])
        stats.interactive = int(data["interactive"])
        stats.shared = int(data["shared"])
        stats.parallel = int(data["parallel"])
        stats.node_count = int(data["node_count"])
        stats.first_at = (float(data["first_at"])
                          if data.get("first_at") is not None else math.inf)
        stats.last_at = (float(data["last_at"])
                         if data.get("last_at") is not None else -math.inf)
        stats.total_runtime = float(data["total_runtime"])
        stats.runtime_sketch = QuantileSketch.from_dict(
            data["runtime_sketch"])
        stats.gap_sketch = QuantileSketch.from_dict(data["gap_sketch"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CampaignStats jobs={self.jobs} "
                f"interactive={self.interactive} span={self.span:.6g}s>")


def summarize_campaign(arrivals: Iterable[JobArrival]) -> CampaignStats:
    """Fold any arrival stream into bounded :class:`CampaignStats`.

    Works identically on a materialised list (the eager path) and a lazy
    generator (the streaming path); the CI scale gate asserts both
    produce the same aggregates.
    """
    stats = CampaignStats()
    for arrival in arrivals:
        stats.observe(arrival)
    return stats


__all__ = [
    "CURVES",
    "CampaignStats",
    "RUNTIME_DISTS",
    "ScaleConfig",
    "iter_campaign",
    "summarize_campaign",
]
