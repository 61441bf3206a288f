"""Push vs. pull vs. data-aware brokering under adversarial regimes.

Not a paper table — a Table-I-style comparison of the three
:class:`~repro.core.BrokerProtocol` implementations (CrossBroker push,
AliEn-style pull, Gridbus-style data-aware; PAPERS.md cs/0306068,
cs/0405023) over four regimes:

``baseline``
    Light load, fresh MDS: every mode should place everything; the
    data-aware broker should beat blind push on response time because
    it lands jobs next to their input replicas.
``stale-mds``
    The index is frozen at t=0 and the push-family brokers run with the
    per-site refresh disabled (``refresh_sites=False``): push decisions
    are only as good as the stale snapshot, while pull agents advertise
    live state with every poll.  The response-time ordering flips.
``site-failure``
    A slice of the grid drops off the network just after t=0, shrinking
    capacity below peak demand: the push exclusive path fails fast
    ("an interactive submission fails when there is no idle machine")
    while queued pull tasks simply wait for capacity to free up.
``many-sites``
    A larger grid: push match latency grows with the per-site refresh
    fan-out, pull claim latency stays at queue-signal speed.

Cells are ``(regime, mode)``; each builds its own
``Scenario(broker_mode=mode)`` world with a cell-specific seed and
pinned job ids, so results are byte-identical across serial, parallel,
and cache-served execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

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

MODES = ("push", "pull", "data")
REGIMES = ("baseline", "stale-mds", "site-failure", "many-sites")

#: Per-regime job runtime (s) and inter-arrival gap (s): baseline and
#: many-sites stay light; stale-mds builds to full occupancy so stale
#: decisions hurt; site-failure overshoots the post-outage capacity.
_RUNTIME = {"baseline": 8.0, "stale-mds": 120.0,
            "site-failure": 30.0, "many-sites": 8.0}
#: Baseline arrivals are slow enough that the replica site usually has a
#: free slot — data-aware placement then converts locality into response
#: time instead of queueing behind its own good choices.
_GAP = {"baseline": 12.0, "stale-mds": 3.0,
        "site-failure": 3.0, "many-sites": 6.0}


@dataclass
class BrokerModesConfig(ConfigCodec):
    jobs: int = 20
    sites: int = 8
    many_sites: int = 24
    nodes_per_site: int = 2
    #: Input datasets attached to every baseline job.
    data_files: int = 1
    data_bytes: int = 24_000_000
    #: How many sites hold a copy of each file (site00, site01, ...).
    replica_sites: int = 1
    #: site-failure regime: the first N sites drop off the core.
    failed_sites: int = 2
    outage_start: float = 1.0
    outage_duration: float = 100_000.0
    #: stale-mds regime: advert push period (effectively "never again").
    stale_period: float = 1e8
    seed: int = 11
    calibration: Calibration = field(
        default_factory=lambda: DEFAULT_CALIBRATION)


@dataclass
class ModeMeasurement:
    """Picklable per-cell payload."""

    jobs: int
    successes: int
    #: finished - submitted, successful jobs only.
    response: Series
    #: Match latency: selection_time (push/data) or queue wait (pull).
    match: Series
    resubmissions: int
    #: Input staging seconds, successful jobs only.
    staging: Series


def _measure(config: BrokerModesConfig, regime: str,
             mode: str) -> ModeMeasurement:
    from ..core import BrokerConfig, DataBrokerConfig
    from ..scenario import Scenario
    from ..workloads import synthetic_job

    offset = REGIMES.index(regime) * len(MODES) + MODES.index(mode)
    n_sites = config.many_sites if regime == "many-sites" else config.sites
    handle = Scenario(sites=n_sites, scenario="europe",
                      nodes_per_site=config.nodes_per_site,
                      seed=config.seed * 1000 + offset,
                      calibration=config.calibration,
                      broker_mode=mode).build()
    env = handle.env

    lfns: Tuple[str, ...] = ()
    if regime == "baseline" and config.data_files:
        lfns = tuple(f"lfn:bm{k}" for k in range(config.data_files))
        site_names = sorted(handle.testbed.sites)
        for lfn in lfns:
            for site in site_names[:config.replica_sites]:
                handle.replicas.register(lfn, site, config.data_bytes)

    if regime == "stale-mds":
        # Freeze the index at its t=0 snapshot...
        for publisher in handle.testbed.publishers:
            publisher.period = config.stale_period
        # ...and make the push-family brokers trust it blindly.
        if mode == "push":
            handle.configure_broker(BrokerConfig(refresh_sites=False))
        elif mode == "data":
            handle.configure_broker(DataBrokerConfig(refresh_sites=False))
    elif regime == "site-failure":
        for name in sorted(handle.testbed.sites)[:config.failed_sites]:
            handle.network.inject_outage(
                "core", f"gk.{name}", config.outage_start,
                config.outage_duration)

    broker = handle.broker
    runtime = _RUNTIME[regime]
    gap = _GAP[regime]
    responses: List[float] = []
    match: List[float] = []
    staging: List[float] = []
    successes = 0
    resubmissions = 0

    extra = {"inputdata": list(lfns)} if lfns else {}
    jobs = (synthetic_job(f"bm-{i:03d}", f"user{i % 3}", runtime, "bm-app",
                          machineaccess="exclusive", streamingmode="fast",
                          **extra)
            for i in range(config.jobs))

    def driver() -> Generator:
        nonlocal successes, resubmissions
        submitted = yield from drive_paced_jobs(handle, jobs, gap, runtime,
                                                "bm/pace")
        for s in submitted:
            report = s.report
            match.append(report.selection_time)
            resubmissions += report.resubmissions
            if report.success:
                successes += 1
                responses.append(report.finished_at - report.submitted_at)
                staging.append(report.data_staging_time)
        yield from broker.drain()
        return None

    proc = env.process(driver(), name="bm/driver")
    env.run(until=proc)
    return ModeMeasurement(
        jobs=config.jobs,
        successes=successes,
        response=Series.of("response", responses),
        match=Series.of("match", match),
        resubmissions=resubmissions,
        staging=Series.of("staging", staging),
    )


# ---------------------------------------------------------------------------
# Runner cells: one (regime, mode) pair per cell
# ---------------------------------------------------------------------------
def plan_cells(config: BrokerModesConfig) -> List[CellKey]:
    return [(regime, mode) for regime in REGIMES for mode in MODES]


def run_cell(config: BrokerModesConfig, key: CellKey) -> ModeMeasurement:
    regime, mode = key
    return _measure(config, regime, mode)


def merge_cells(config: BrokerModesConfig,
                payloads: Dict[CellKey, ModeMeasurement]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="broker-modes",
        title="Brokering modes under stale information, failures, and scale",
        paper_reference="§3/§6.1 push pipeline vs. AliEn pull "
                        "(cs/0306068) and Gridbus data-aware brokering "
                        "(cs/0405023)")
    for regime in REGIMES:
        table = AsciiTable(
            ["mode", "success", "response mean (s)", "match mean (s)",
             "resubmits", "staging mean (s)"],
            title=f"Regime: {regime}")
        for mode in MODES:
            m = payloads[(regime, mode)]
            table.add_row(
                mode, f"{m.successes}/{m.jobs}",
                opt_cell(opt_mean(m.response)), opt_cell(opt_mean(m.match)),
                m.resubmissions, opt_cell(opt_mean(m.staging)))
        result.tables.append(table)
    result.data["measurements"] = payloads

    base = {mode: payloads[("baseline", mode)] for mode in MODES}
    stale = {mode: payloads[("stale-mds", mode)] for mode in MODES}
    fail = {mode: payloads[("site-failure", mode)] for mode in MODES}
    many = {mode: payloads[("many-sites", mode)] for mode in MODES}

    result.check(
        "baseline: every mode places every job",
        all(m.successes == m.jobs for m in base.values()),
        ", ".join(f"{mode}:{m.successes}/{m.jobs}"
                  for mode, m in base.items()))
    push_resp = opt_mean(base["push"].response)
    data_resp = opt_mean(base["data"].response)
    result.check(
        "baseline: data-aware response <= push response (replica locality)",
        data_resp is not None and push_resp is not None
        and data_resp <= push_resp,
        f"data {data_resp:.2f}s vs push {push_resp:.2f}s"
        if data_resp is not None and push_resp is not None else "no data")
    result.check(
        "stale-mds: pull completes at least as many jobs as push",
        stale["pull"].successes >= stale["push"].successes,
        f"pull {stale['pull'].successes}/{stale['pull'].jobs} vs "
        f"push {stale['push'].successes}/{stale['push'].jobs}")
    pull_stale = opt_mean(stale["pull"].response)
    push_stale = opt_mean(stale["push"].response)
    result.check(
        "stale-mds: the baseline ordering flips — pull responds faster "
        "than push",
        pull_stale is not None
        and (push_stale is None or pull_stale < push_stale),
        f"pull {pull_stale:.2f}s vs push "
        + (f"{push_stale:.2f}s" if push_stale is not None else "n/a")
        if pull_stale is not None else "no pull data")
    result.check(
        "site-failure: pull degrades more gracefully than push",
        fail["pull"].successes >= fail["push"].successes
        and fail["pull"].successes == fail["pull"].jobs,
        f"pull {fail['pull'].successes}/{fail['pull'].jobs} vs "
        f"push {fail['push'].successes}/{fail['push'].jobs}")
    pull_many = opt_mean(many["pull"].match)
    push_many = opt_mean(many["push"].match)
    result.check(
        "many-sites: pull match latency beats the push refresh fan-out",
        pull_many is not None and push_many is not None
        and pull_many < push_many,
        f"pull {pull_many:.2f}s vs push {push_many:.2f}s"
        if pull_many is not None and push_many is not None else "no data")
    result.notes.append(
        "Match latency is two-stage selection time for the push family "
        "and central-queue wait (submission to claim) for pull.")
    return result


register(ExperimentSpec(
    experiment_id="broker-modes",
    config_factory=BrokerModesConfig,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="bm-v1",
    quick_config_factory=lambda: BrokerModesConfig(
        jobs=10, sites=5, many_sites=14),
))
