"""Ablations over the design choices the paper calls out.

Each ablation isolates one mechanism and sweeps the knob the paper either
fixes (buffer size, retry interval), sweeps narrowly (PerformanceLoss 10
and 25), or defers to future work (degree of multiprogramming, priority
half-life).

Every sweep is decomposed into runner cells (one knob value per cell) so
the sharded engine can fan sweep points out across processes and cache
them individually; run one with
``repro.runner.run_experiment("ablation-buffer", config)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..metrics import AsciiTable, Series
from ..runner.spec import CellKey, ExperimentSpec, register
from .common import ConfigCodec, ExperimentResult
from .fig8 import agent_in_place


def _campus(seed: int, calibration: Calibration):
    """One-node campus world (the ablation substrate)."""
    from ..scenario import Scenario

    return Scenario(sites=1, scenario="campus", nodes_per_site=1,
                    seed=seed, calibration=calibration).build()


# ---------------------------------------------------------------------------
# Ablation 1: CA/CS buffer size (explains the Fig. 6 10 KB crossover)
# ---------------------------------------------------------------------------
@dataclass
class BufferSweepConfig(ConfigCodec):
    buffer_sizes: Tuple[int, ...] = (2048, 8192, 65536)
    payload: int = 10000
    sequences: int = 200
    seed: int = 4
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def plan_buffer_cells(config: BufferSweepConfig) -> List[CellKey]:
    return [(str(size),) for size in config.buffer_sizes]


def run_buffer_cell(config: BufferSweepConfig, key: CellKey) -> Series:
    from ..baselines import InterpositionMechanism
    from ..jdl import StreamingMode
    from ..workloads import run_sequences

    size = int(key[0])
    i = config.buffer_sizes.index(size)
    calibration = config.calibration.with_streaming(buffer_size=size)
    handle = _campus(config.seed + i, calibration)
    node = handle.node()
    mech = InterpositionMechanism(handle.env, handle.network, handle.rng,
                                  "ui", node, calibration.streaming,
                                  StreamingMode.RELIABLE)

    def driver() -> Generator:
        times = yield from run_sequences(mech, config.payload,
                                         config.sequences)
        return times

    proc = handle.env.process(driver(), name=f"buf/{size}")
    handle.env.run(until=proc)
    return Series.of(f"buf{size}", proc.value)


def merge_buffer_cells(config: BufferSweepConfig,
                       payloads: Dict[CellKey, Series]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-buffer",
        title="Reliable-mode round trip vs. CA/CS buffer size",
        paper_reference="§6.2's explanation for reliable mode beating ssh "
                        "at 10 KB (larger internal buffers)")
    table = AsciiTable(["buffer (B)", f"mean RTT at {config.payload} B (ms)"],
                       title="Buffer-size sweep (reliable mode)", precision=3)
    means: Dict[int, Series] = {}
    for size in config.buffer_sizes:
        means[size] = payloads[(str(size),)]
        table.add_row(size, means[size].mean * 1e3)
    result.tables.append(table)
    result.data["series"] = means

    sizes = sorted(config.buffer_sizes)
    result.check(
        "larger buffers make large-payload round trips faster",
        all(means[a].mean > means[b].mean
            for a, b in zip(sizes, sizes[1:])),
        " -> ".join(f"{s}B:{means[s].mean*1e3:.2f}ms" for s in sizes))
    return result


# ---------------------------------------------------------------------------
# Ablation 2: reliable-mode retry interval under injected outages
# ---------------------------------------------------------------------------
@dataclass
class RetrySweepConfig(ConfigCodec):
    retry_intervals: Tuple[float, ...] = (1.0, 5.0, 15.0)
    ticks: int = 30
    tick_period: float = 0.5
    outage_start: float = 3.0
    outage_duration: float = 6.0
    seed: int = 9
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def plan_retry_cells(config: RetrySweepConfig) -> List[CellKey]:
    return [(str(interval),) for interval in config.retry_intervals]


def run_retry_cell(config: RetrySweepConfig,
                   key: CellKey) -> Dict[str, object]:
    from ..jdl import StreamingMode
    from ..streaming import InteractiveSession

    interval = float(key[0])
    i = config.retry_intervals.index(interval)
    calibration = config.calibration.with_streaming(
        retry_interval=interval, max_retries=1000)
    handle = _campus(config.seed + i, calibration)
    env = handle.env
    site = handle.site()
    node = site.nodes[0]
    handle.network.inject_outage("core", site.gatekeeper_host,
                                 config.outage_start, config.outage_duration)
    session = InteractiveSession(env, handle.network, handle.rng,
                                 calibration.streaming, "ui",
                                 StreamingMode.RELIABLE)

    def app(ctx) -> Generator:
        for t in range(config.ticks):
            yield from ctx.io(config.tick_period)
            yield from ctx.stdio.write(f"tick{t}", nbytes=16, eol=True)
        yield from ctx.stdio.eof()
        return "done"

    node.acquire("retry-ablation")
    proc = node.execute(app, "ticker", interactive=True,
                        setup=session.make_setup(node.name, 0))
    session.watch(proc)

    def reader() -> Generator:
        got = []
        recovery_at = None
        for _ in range(config.ticks):
            line = yield from session.read_line()
            got.append(line.data)
            if recovery_at is None and line.time >= config.outage_start:
                recovery_at = line.time
        return (got, recovery_at, env.now)

    rproc = env.process(reader(), name=f"retry/{interval}")
    env.run(until=rproc)
    got, recovery_at, finished_at = rproc.value
    ok = got == [f"tick{t}" for t in range(config.ticks)]
    retries = session.agents[0].sender.stats.retries
    outage_end = config.outage_start + config.outage_duration
    # Recovery latency: first delivery after the link came back.
    delivery = max((recovery_at or finished_at) - outage_end, 0.0)
    return {"ok": ok, "lines": len(got), "delivery": delivery,
            "retries": retries}


def merge_retry_cells(config: RetrySweepConfig,
                      payloads: Dict[CellKey, Dict[str, object]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-retry",
        title="Reliable-mode recovery vs. retry interval",
        paper_reference="§4: 'The number of retries and the number of "
                        "seconds between each retry are configurable'")
    table = AsciiTable(
        ["retry interval (s)", "all delivered", "recovery latency (s)",
         "retries"],
        title=(f"{config.ticks} ticks through a "
               f"{config.outage_duration:.0f} s outage"))
    delivery: Dict[float, float] = {}
    for interval in config.retry_intervals:
        cell = payloads[(str(interval),)]
        ok = bool(cell["ok"])
        delivery[interval] = float(cell["delivery"])  # type: ignore[arg-type]
        table.add_row(interval, "yes" if ok else "NO", delivery[interval],
                      cell["retries"])
        result.check(
            f"retry interval {interval:g}s: every tick delivered in order",
            ok, f"{cell['lines']}/{config.ticks} lines")
    result.tables.append(table)
    result.data["delivery"] = delivery

    intervals = sorted(config.retry_intervals)
    result.check(
        "shorter retry intervals recover (weakly) sooner after the outage",
        all(delivery[a] <= delivery[b] + 0.1
            for a, b in zip(intervals, intervals[1:])),
        " -> ".join(f"{i:g}s:{delivery[i]:.1f}s" for i in intervals))
    return result


# ---------------------------------------------------------------------------
# Ablation 3: PerformanceLoss sweep (generalises Fig. 8's two points)
# ---------------------------------------------------------------------------
@dataclass
class PerformanceLossSweepConfig(ConfigCodec):
    losses: Tuple[int, ...] = (0, 5, 10, 25, 50)
    iterations: int = 300
    seed: int = 12
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def plan_pl_cells(config: PerformanceLossSweepConfig) -> List[CellKey]:
    return [(str(pl),) for pl in config.losses]


def run_pl_cell(config: PerformanceLossSweepConfig, key: CellKey) -> float:
    from ..workloads import cpu_hog, make_loop_app

    pl = int(key[0])
    i = config.losses.index(pl)
    profile = replace(config.calibration.loop_app,
                      iterations=config.iterations)
    handle = _campus(config.seed + i, config.calibration)
    env = handle.env
    runtime, boot = agent_in_place(handle, "pl/agent")

    def driver() -> Generator:
        yield from boot()
        bt = yield from runtime.run_job("hog", cpu_hog(), False, 0,
                                        daemon=True)
        yield bt.started
        it = yield from runtime.run_job("loop", make_loop_app(profile),
                                        True, pl)
        samples = yield it.finished
        return samples

    proc = env.process(driver(), name=f"pl/{pl}")
    env.run(until=proc)
    return Series.of("cpu", [s.cpu_elapsed for s in proc.value]).mean


def merge_pl_cells(config: PerformanceLossSweepConfig,
                   payloads: Dict[CellKey, float]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-pl",
        title="Measured CPU loss vs. PerformanceLoss attribute",
        paper_reference="§6.3: 'CPU adjustment is close to the value of "
                        "the Performance Loss attribute'")
    profile = replace(config.calibration.loop_app,
                      iterations=config.iterations)
    table = AsciiTable(["PL", "CPU mean (s)", "measured loss (%)",
                        "nominal (%)"],
                       title="PerformanceLoss sweep (batch hog co-located)")
    measured: Dict[int, float] = {}
    reference: Optional[float] = None
    for pl in config.losses:
        cpu_mean = payloads[(str(pl),)]
        if pl == 0:
            reference = cpu_mean
        base = reference if reference is not None else profile.cpu_burst
        loss = (cpu_mean - base) / base * 100.0
        measured[pl] = loss
        table.add_row(pl, cpu_mean, loss, pl)
    result.tables.append(table)
    result.data["measured_loss"] = measured

    losses = sorted(config.losses)
    result.check(
        "measured loss is monotone in PL",
        all(measured[a] <= measured[b] + 0.5
            for a, b in zip(losses, losses[1:])),
        " -> ".join(f"{pl}:{measured[pl]:.1f}%" for pl in losses))
    result.check(
        "measured loss never exceeds the nominal PL (quantum flooring)",
        all(measured[pl] <= pl + 0.5 for pl in losses),
        "flooring keeps the agent under the user's bound")
    return result


# ---------------------------------------------------------------------------
# Ablation 4: degree of multiprogramming (§5.2 / §7 future work)
# ---------------------------------------------------------------------------
@dataclass
class DegreeSweepConfig(ConfigCodec):
    degrees: Tuple[int, ...] = (1, 2, 3)
    iterations: int = 120
    seed: int = 17
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def plan_degree_cells(config: DegreeSweepConfig) -> List[CellKey]:
    return [(str(degree),) for degree in config.degrees]


def run_degree_cell(config: DegreeSweepConfig, key: CellKey) -> float:
    from ..workloads import make_loop_app

    degree = int(key[0])
    i = config.degrees.index(degree)
    profile = replace(config.calibration.loop_app,
                      iterations=config.iterations)
    handle = _campus(config.seed + i, config.calibration)
    env = handle.env
    runtime, boot = agent_in_place(handle, "deg/agent",
                                   interactive_slots=degree)

    def driver() -> Generator:
        yield from boot()
        tickets = []
        for k in range(degree):
            t = yield from runtime.run_job(f"loop{k}",
                                           make_loop_app(profile),
                                           True, 10, daemon=True)
            tickets.append(t)
        first = yield tickets[0].finished
        return first

    proc = env.process(driver(), name=f"deg/{degree}")
    env.run(until=proc)
    return Series.of("cpu", [s.cpu_elapsed for s in proc.value]).mean


def merge_degree_cells(config: DegreeSweepConfig,
                       payloads: Dict[CellKey, float]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-degree",
        title="CPU burst stretch vs. number of co-resident interactive jobs",
        paper_reference="§5.2/§7: 'our multi-programming system could allow "
                        "a larger degree of multi-programming'")
    table = AsciiTable(["interactive jobs", "CPU burst mean (s)",
                        "stretch vs 1 job"],
                       title="Degree-of-multiprogramming sweep")
    stretch: Dict[int, float] = {}
    base: Optional[float] = None
    for degree in config.degrees:
        cpu_mean = payloads[(str(degree),)]
        if base is None:
            base = cpu_mean
        stretch[degree] = cpu_mean / base
        table.add_row(degree, cpu_mean, stretch[degree])
    result.tables.append(table)
    result.data["stretch"] = stretch

    degrees = sorted(config.degrees)
    result.check(
        "each extra interactive tenant stretches bursts roughly linearly",
        all(abs(stretch[d] - d) < 0.25 * d for d in degrees),
        " ".join(f"{d}:{stretch[d]:.2f}x" for d in degrees))
    return result


# ---------------------------------------------------------------------------
# Ablation 5: fair-share half-life (§5.1 / §7 priority management)
# ---------------------------------------------------------------------------
@dataclass
class HalfLifeSweepConfig(ConfigCodec):
    half_lives: Tuple[float, ...] = (600.0, 3600.0, 14400.0)
    usage_duration: float = 3600.0
    recovery_horizon: float = 14400.0
    seed: int = 23
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def plan_half_life_cells(config: HalfLifeSweepConfig) -> List[CellKey]:
    return [(str(half_life),) for half_life in config.half_lives]


def run_half_life_cell(config: HalfLifeSweepConfig,
                       key: CellKey) -> Tuple[float, float, float]:
    from ..core.fairshare import FairShareAccounting, af_batch
    from ..sim import Environment

    half_life = float(key[0])
    fs_config = replace(config.calibration.fairshare,
                        half_life=half_life)
    env = Environment()
    accounting = FairShareAccounting(env, fs_config, total_cpus=10,
                                     autostart=False)
    accounting.job_started("hog", "job-1", 10, af_batch())
    steps_busy = int(config.usage_duration / fs_config.update_interval)
    for _ in range(steps_busy):
        env._now += fs_config.update_interval
        accounting.step()
    peak = accounting.priority("hog")
    accounting.job_finished("hog", "job-1")
    steps_idle = int(config.recovery_horizon / fs_config.update_interval)
    for _ in range(steps_idle):
        env._now += fs_config.update_interval
        accounting.step()
    after = accounting.priority("hog")
    frac = 1.0 - after / peak if peak > 0 else 1.0
    return (peak, after, frac)


def merge_half_life_cells(
        config: HalfLifeSweepConfig,
        payloads: Dict[CellKey, Tuple[float, float, float]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="ablation-halflife",
        title="Priority recovery vs. fair-share half-life",
        paper_reference="§5.1: 'if users do not use any resources at all, "
                        "the original number of credits will gradually be "
                        "restored, according to h'")
    table = AsciiTable(
        ["half-life (s)", "peak priority", "priority after recovery",
         "recovered fraction"],
        title="Half-life sweep (one user, 1h of full-grid batch usage)",
        precision=4)
    recovered: Dict[float, float] = {}
    for half_life in config.half_lives:
        peak, after, frac = payloads[(str(half_life),)]
        recovered[half_life] = frac
        table.add_row(half_life, peak, after, frac)
    result.tables.append(table)
    result.data["recovered"] = recovered

    lives = sorted(config.half_lives)
    result.check(
        "shorter half-life restores credits faster",
        all(recovered[a] >= recovered[b] - 1e-9
            for a, b in zip(lives, lives[1:])),
        " ".join(f"h={h:g}:{recovered[h]*100:.1f}%" for h in lives))
    result.check(
        "priority decays toward the initial value when idle",
        all(0.0 < recovered[h] <= 1.0 for h in lives))
    return result


# ---------------------------------------------------------------------------
# Spec registration
# ---------------------------------------------------------------------------
register(ExperimentSpec(
    experiment_id="ablation-buffer",
    config_factory=BufferSweepConfig,
    plan=plan_buffer_cells,
    run_cell=run_buffer_cell,
    merge=merge_buffer_cells,
    cache_salt="ab-buf-v1",
))

register(ExperimentSpec(
    experiment_id="ablation-retry",
    config_factory=RetrySweepConfig,
    plan=plan_retry_cells,
    run_cell=run_retry_cell,
    merge=merge_retry_cells,
    cache_salt="ab-retry-v1",
))

register(ExperimentSpec(
    experiment_id="ablation-pl",
    config_factory=PerformanceLossSweepConfig,
    plan=plan_pl_cells,
    run_cell=run_pl_cell,
    merge=merge_pl_cells,
    cache_salt="ab-pl-v1",
))

register(ExperimentSpec(
    experiment_id="ablation-degree",
    config_factory=DegreeSweepConfig,
    plan=plan_degree_cells,
    run_cell=run_degree_cell,
    merge=merge_degree_cells,
    cache_salt="ab-deg-v1",
))

register(ExperimentSpec(
    experiment_id="ablation-halflife",
    config_factory=HalfLifeSweepConfig,
    plan=plan_half_life_cells,
    run_cell=run_half_life_cell,
    merge=merge_half_life_cells,
    cache_salt="ab-hl-v1",
))
