"""Chaos drill: steering-verb regimes replayed over one grid workload.

Not a paper table — a disaster-scenario companion to ``broker-modes``
built on the :mod:`repro.obs.control` steering bridge.  Every cell runs
the *same* paced interactive workload, then a regime-specific
:class:`~repro.obs.ChaosSchedule` replays steering verbs at fixed
sim-times inside a :func:`~repro.obs.control_scope`:

``calm``
    No schedule — the control hook is attached but idle, so this cell
    doubles as a regression proof that an attached-but-silent controller
    changes nothing.
``drain``
    The first site is drained mid-run and undrained later: its queue
    stops accepting work, the rest of the grid absorbs the load, and
    every job still completes.
``partition``
    The first sites drop off the WAN (gatekeeper links forced down) —
    the paper's regional-outage story.  Push submissions aimed at dead
    sites fail and resubmit, so the damage shows up as resubmissions
    and slower responses, not lost jobs.
``burst``
    A chaos-job burst is injected at the strike time, overcommitting
    the slots: the foreground jobs queue behind it and respond slower
    than ``calm``.

The schedule is a pure function of the config, so cells stay cacheable
and byte-identical across serial, parallel, and cache-served runs —
unlike ``repro run --chaos``, where an external schedule bypasses the
cache.  Registered but deliberately not part of ``repro run all``'s
canonical order (chaos is opt-in): run it with ``repro run chaos-drill``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..metrics import AsciiTable, Series
from ..runner.spec import CellKey, ExperimentSpec, register
from .common import (
    ConfigCodec,
    ExperimentResult,
    drive_paced_jobs,
    opt_cell,
    opt_mean,
)

if TYPE_CHECKING:
    from ..obs import ChaosSchedule

REGIMES = ("calm", "drain", "partition", "burst")


@dataclass
class ChaosDrillConfig(ConfigCodec):
    jobs: int = 16
    sites: int = 4
    nodes_per_site: int = 2
    #: Foreground submission pacing and per-job runtime (s): light
    #: enough that the calm regime places everything (exclusive-access
    #: interactive jobs fail fast when no machine is idle).
    gap: float = 10.0
    runtime: float = 24.0
    #: How many sites the drain/partition regimes hit (site00, ...).
    hit_sites: int = 1
    strike_at: float = 20.0
    recover_at: float = 120.0
    #: burst regime: injected chaos jobs and their runtime.
    burst_jobs: int = 6
    burst_runtime: float = 30.0
    seed: int = 23
    calibration: Calibration = field(
        default_factory=lambda: DEFAULT_CALIBRATION)


@dataclass
class DrillMeasurement:
    """Picklable per-cell payload."""

    jobs: int
    successes: int
    #: finished - submitted, successful foreground jobs only.
    response: Series
    resubmissions: int
    #: Chaos-injected jobs observed / completed successfully.
    injected: int
    injected_done: int
    #: The controller's verb log: ``{"at", "verb", "source"}`` dicts.
    fired: List[Dict[str, Any]]


def schedule_for(config: ChaosDrillConfig, regime: str) -> ChaosSchedule:
    """The regime's chaos schedule (a pure function of the config)."""
    from ..obs import ChaosSchedule

    hit = [f"site{i:02d}" for i in range(config.hit_sites)]
    actions: List[Dict[str, Any]] = []
    if regime == "drain":
        for site in hit:
            actions.append({"at": config.strike_at,
                            "verb": "drain_site", "site": site})
            actions.append({"at": config.recover_at,
                            "verb": "undrain_site", "site": site})
    elif regime == "partition":
        for site in hit:
            actions.append({"at": config.strike_at,
                            "verb": "fail_site", "site": site})
            actions.append({"at": config.recover_at,
                            "verb": "recover_site", "site": site})
    elif regime == "burst":
        actions.append({"at": config.strike_at, "verb": "inject",
                        "count": config.burst_jobs,
                        "runtime": config.burst_runtime})
    return ChaosSchedule.from_dict({"version": 1, "actions": actions})


def _measure(config: ChaosDrillConfig, regime: str) -> DrillMeasurement:
    from ..obs import control_scope
    from ..scenario import Scenario
    from ..workloads import synthetic_job

    offset = REGIMES.index(regime)
    schedule = schedule_for(config, regime)
    with control_scope(schedule=schedule) as controllers:
        handle = Scenario(sites=config.sites, scenario="europe",
                          nodes_per_site=config.nodes_per_site,
                          seed=config.seed * 100 + offset,
                          calibration=config.calibration).build()
        env = handle.env
        responses: List[float] = []
        successes = 0
        resubmissions = 0

        # Exclusive access: completion is observed on the in-process
        # LRMS handle, so jobs already running at a partitioned site
        # still finish (a shared-VM job's completion message would be
        # lost with the WAN link and strand the submission forever).
        jobs = (synthetic_job(f"drill-{i:03d}", f"user{i % 3}",
                              config.runtime, "drill-app",
                              machineaccess="exclusive")
                for i in range(config.jobs))

        def driver() -> Generator:
            nonlocal successes, resubmissions
            submitted = yield from drive_paced_jobs(
                handle, jobs, config.gap, config.runtime, "drill/pace")
            for s in submitted:
                report = s.report
                resubmissions += report.resubmissions
                if report.success:
                    successes += 1
                    responses.append(report.finished_at - report.submitted_at)
            # Chaos-injected jobs were tracked by the steering adapter;
            # wait them out so the burst regime measures to completion.
            world = controllers[0].world if controllers else None
            if world is not None:
                for job_id in list(world.jobs):
                    if job_id.startswith("chaos-"):
                        try:
                            yield world.jobs[job_id].finished
                        except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- injected-job failure is data, counted via injected_done
                            pass
            yield from handle.broker.drain()
            return None

        proc = env.process(driver(), name="drill/driver")
        env.run(until=proc)

        controller = controllers[0]
        injected = injected_done = 0
        world = controller.world
        if world is not None:
            for job_id, s in world.jobs.items():
                if not job_id.startswith("chaos-"):
                    continue
                injected += 1
                if s.report.success:
                    injected_done += 1
        return DrillMeasurement(
            jobs=config.jobs,
            successes=successes,
            response=Series.of("response", responses),
            resubmissions=resubmissions,
            injected=injected,
            injected_done=injected_done,
            fired=list(controller.fired),
        )


# ---------------------------------------------------------------------------
# Runner cells: one regime per cell
# ---------------------------------------------------------------------------
def plan_cells(config: ChaosDrillConfig) -> List[CellKey]:
    return [(regime,) for regime in REGIMES]


def run_cell(config: ChaosDrillConfig, key: CellKey) -> DrillMeasurement:
    (regime,) = key
    return _measure(config, regime)


def merge_cells(config: ChaosDrillConfig,
                payloads: Dict[CellKey, DrillMeasurement]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="chaos-drill",
        title="Chaos drill: drain, partition, and burst steering regimes",
        paper_reference="§6 failure handling — interactive submissions "
                        "resubmit around dead sites; steering verbs via "
                        "the repro.obs control bridge")
    table = AsciiTable(
        ["regime", "success", "response mean (s)", "resubmits",
         "injected", "verbs fired"],
        title="Chaos drill regimes")
    for regime in REGIMES:
        m = payloads[(regime,)]
        table.add_row(
            regime, f"{m.successes}/{m.jobs}",
            opt_cell(opt_mean(m.response)), m.resubmissions,
            f"{m.injected_done}/{m.injected}", len(m.fired))
    result.tables.append(table)
    result.data["measurements"] = payloads

    calm = payloads[("calm",)]
    drain = payloads[("drain",)]
    partition = payloads[("partition",)]
    burst = payloads[("burst",)]

    result.check(
        "calm: no verbs fire and every job completes",
        not calm.fired and calm.successes == calm.jobs,
        f"{calm.successes}/{calm.jobs}, {len(calm.fired)} verbs")
    result.check(
        "drain: both verbs replay and completions never beat calm",
        len(drain.fired) == 2 * config.hit_sites
        and drain.successes <= calm.successes,
        f"{drain.successes}/{drain.jobs} vs calm {calm.successes}"
        f"/{calm.jobs}, {len(drain.fired)} verbs")
    result.check(
        "partition: the outage is visible — failed submissions or "
        "resubmissions (exclusive interactive jobs fail fast, §5.2)",
        len(partition.fired) == 2 * config.hit_sites
        and (partition.successes < partition.jobs
             or partition.resubmissions > 0),
        f"{partition.successes}/{partition.jobs}, "
        f"{partition.resubmissions} resubmissions")
    calm_resp = opt_mean(calm.response)
    burst_resp = opt_mean(burst.response)
    result.check(
        "burst: the injected load runs and steals foreground capacity",
        burst.injected == config.burst_jobs and burst.injected_done >= 1
        and burst.successes < calm.successes,
        f"injected {burst.injected_done}/{burst.injected}; foreground "
        f"{burst.successes}/{burst.jobs} vs calm {calm.successes}"
        f"/{calm.jobs}; response {opt_cell(burst_resp)} vs "
        f"{opt_cell(calm_resp)}")
    result.notes.append(
        "Every cell replays its regime's ChaosSchedule inside a "
        "control_scope; the calm cell proves an attached-but-idle "
        "controller perturbs nothing.")
    return result


register(ExperimentSpec(
    experiment_id="chaos-drill",
    config_factory=ChaosDrillConfig,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="drill-v1",
    # recover_at must land inside the (shorter) quick run, or the
    # recovery verbs never fire and the drain/partition checks starve.
    quick_config_factory=lambda: ChaosDrillConfig(
        jobs=10, sites=3, burst_jobs=4, recover_at=75.0),
))
