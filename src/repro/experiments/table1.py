"""Table I: response time for jobs (seconds).

§6.1's measurement: 100 sequential-job submissions per method; columns are
resource discovery, resource selection, and submission (= submit at the
gatekeeper/agent until the first output arrives at the user machine);
scenarios are the campus grid and IFCA (wide area).

Methods:

* **glogin** — discovery/selection hand-made by the user; submission pays
  GSI + gatekeeper traversal + glogin channel setup;
* **idle** — CrossBroker, interactive job, exclusive access, direct GRAM
  submission to an idle machine;
* **virtual machine** — CrossBroker, interactive job, shared access,
  dispatched to an existing agent's interactive VM (discovery/selection is
  a local registry lookup);
* **job + agent** — CrossBroker, batch job whose submission includes the
  glide-in transfer/boot before the job starts on the batch VM.

Paper values: glogin 16.43/20.12 s, idle 17.2 s, VM 6.79 s,
job+agent 29.3 s; discovery ≈ 0.5 s, selection ≈ 3 s at 20 sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..metrics import AsciiTable, Series
from ..runner.spec import CellKey, ExperimentSpec, register
from .common import ConfigCodec, ExperimentResult

if TYPE_CHECKING:
    from ..grid import Testbed
    from ..jdl import JobDescription

PAPER = {
    "glogin": {"campus": 16.43, "wan": 20.12},
    "idle": {"campus": 17.2, "wan": None},
    "virtual-machine": {"campus": 6.79, "wan": None},
    "job+agent": {"campus": 29.3, "wan": None},
}

METHODS = ("glogin", "idle", "virtual-machine", "job+agent")


@dataclass
class Table1Config(ConfigCodec):
    jobs_per_method: int = 100
    n_sites: int = 20
    scenarios: Tuple[str, ...] = ("campus", "wan")
    seed: int = 1
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


@dataclass
class MethodMeasurement:
    discovery: Series
    selection: Series
    submission: Series


def _world(config: Table1Config, scenario: str, offset: int,
           **observers: bool) -> Tuple[Testbed, str]:
    """A 20-site Europe testbed whose target site sits on the scenario path.

    Each (scenario, method) cell gets its own world seeded purely from
    ``(config.seed, offset)`` where ``offset`` is the method's canonical
    index — never the shard or completion order — so per-cell RNG streams
    are independent of how the runner distributes the work.
    ``observers``: ``Scenario``'s ``trace``/``telemetry`` switches.
    """
    from ..scenario import Scenario

    handle = Scenario(sites=config.n_sites, scenario=scenario,
                      seed=config.seed * 1000 + offset,
                      calibration=config.calibration, **observers).build()
    assert handle.target is not None
    return handle.testbed, handle.target


def _pinned_job(target: str, owner: str, interactive: bool,
                shared: bool) -> JobDescription:
    """A job with "no special requirements" (so selection refreshes every
    site, as in §6.1) whose Rank steers it onto the scenario's site."""
    from ..jdl import JobDescription

    return JobDescription.from_attributes({
        "executable": "table1_app",
        "jobtype": ["interactive" if interactive else "batch", "sequential"],
        "machineaccess": "shared" if shared else "exclusive",
        "performanceloss": 10 if shared else 0,
        "streamingmode": "fast",
        "rank": f'other.SiteName == "{target}"',
    }, owner=owner)


def _measure_glogin(config: Table1Config, tb: Testbed, target: str,
                    scenario: str) -> MethodMeasurement:
    """Glogin: user picks the machine by hand; we time channel + first output."""
    from ..baselines import GloginMechanism

    submissions: List[float] = []
    env = tb.env
    node = tb.site(target).nodes[0]

    def driver() -> Generator:
        for i in range(config.jobs_per_method):
            mech = GloginMechanism(env, tb.network, tb.rng, "ui", node.name,
                                   config.calibration.glogin,
                                   wan=scenario == "wan")
            t0 = env.now
            yield from mech.establish()
            # The shell is up; the application's first output line crosses.
            yield from mech.one_way(64, to_server=False)
            submissions.append(env.now - t0)
        return submissions

    proc = env.process(driver(), name="t1/glogin")
    env.run(until=proc)
    empty = Series.of("n/a", [])
    return MethodMeasurement(empty, empty, Series.of("glogin", submissions))


def _measure_broker_method(config: Table1Config, tb: Testbed, target: str,
                           method: str) -> MethodMeasurement:
    from ..core import make_broker
    from ..workloads import cpu_bound_app, immediate_output_app

    env = tb.env
    broker = make_broker(env, tb.network, tb.rng, config.calibration)
    discovery: List[float] = []
    selection: List[float] = []
    submission: List[float] = []

    def driver() -> Generator:
        if method == "virtual-machine":
            # Seed the world with one glide-in agent (a long batch job is
            # running on its batch VM, as in Figure 5 scenario 4).
            seed_job = _pinned_job(target, "background", False, False)
            seeded = broker.submit(seed_job, lambda r: cpu_bound_app(1e7),
                                   daemon=True)  # background by design
            yield seeded.started

        pace = env.timer(name=f"t1/{method}/pace")
        # idle: interactive, exclusive; VM: interactive, shared;
        # job+agent: a batch job that plants its own agent.
        interactive = method != "job+agent"
        shared = method == "virtual-machine"
        for i in range(config.jobs_per_method):
            job = _pinned_job(target, f"user{i%5}", interactive, shared)
            submitted = broker.submit(
                job, lambda r: immediate_output_app(run_for=0.5),
                attach_console=True)
            yield submitted.finished
            report = submitted.report
            discovery.append(report.discovery_time)
            selection.append(report.selection_time)
            submission.append(report.submission_time)
            # Let the world quiesce (agents leave, adverts refresh).
            yield pace.arm(5.0)
            if method == "job+agent":
                # Wait for the agent to leave so the next job plants anew.
                while broker.agents.live_agents():
                    yield pace.arm(1.0)
                tb.publish_all_now()
        return None

    proc = env.process(driver(), name=f"t1/{method}")
    env.run(until=proc)
    return MethodMeasurement(Series.of("disc", discovery),
                             Series.of("sel", selection),
                             Series.of("sub", submission))


# ---------------------------------------------------------------------------
# Runner cells: one (scenario, method) pair per cell
# ---------------------------------------------------------------------------
def plan_cells(config: Table1Config) -> List[CellKey]:
    return [(scenario, method)
            for scenario in config.scenarios for method in METHODS]


def run_cell(config: Table1Config, key: CellKey) -> MethodMeasurement:
    scenario, method = key
    tb, target = _world(config, scenario, METHODS.index(method))
    if method == "glogin":
        return _measure_glogin(config, tb, target, scenario)
    return _measure_broker_method(config, tb, target, method)


def merge_cells(config: Table1Config,
                payloads: Dict[CellKey, MethodMeasurement]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table1",
        title="Response time for jobs (seconds)",
        paper_reference="Table I and §6.1")

    all_data: Dict[str, Dict[str, MethodMeasurement]] = {}
    for scenario in config.scenarios:
        data = {method: payloads[(scenario, method)] for method in METHODS}
        all_data[scenario] = data
        table = AsciiTable(
            ["method", "discovery (s)", "selection (s)", "submission (s)",
             "paper submission (s)"],
            title=(f"Table I — {scenario} scenario "
                   f"({config.jobs_per_method} jobs/method, "
                   f"{config.n_sites} sites)"))
        for method in METHODS:
            m = data[method]
            paper = PAPER[method].get(scenario)
            table.add_row(
                method,
                m.discovery.mean if len(m.discovery.values) else None,
                m.selection.mean if len(m.selection.values) else None,
                m.submission.mean,
                paper)
        result.tables.append(table)
    result.data["measurements"] = all_data

    # -- shape checks ------------------------------------------------------
    for scenario in config.scenarios:
        data = all_data[scenario]
        sub = {m: data[m].submission.mean for m in METHODS}
        others_best = min(v for k, v in sub.items() if k != "virtual-machine")
        result.check(
            f"[{scenario}] shared-VM submission is >2x faster than the best "
            f"alternative",
            sub["virtual-machine"] * 2.0 < others_best,
            f"vm={sub['virtual-machine']:.2f}s best-other={others_best:.2f}s")
        if scenario == "campus":
            # Paper: "Glogin submission and interactive submission in
            # exclusive mode exhibit similar performance, although Glogin
            # is slightly better."  Assert similarity with glogin at most
            # marginally worse (sampling noise), never the broker faster
            # by a wide margin.
            result.check(
                "[campus] glogin and exclusive are similar, glogin "
                "slightly better",
                sub["glogin"] < sub["idle"] * 1.05
                and sub["idle"] < sub["glogin"] * 1.35,
                f"glogin={sub['glogin']:.2f}s idle={sub['idle']:.2f}s")
        result.check(
            f"[{scenario}] batch job+agent is the slowest",
            sub["job+agent"] == max(sub.values()),
            f"job+agent={sub['job+agent']:.2f}s")
        disc = data["idle"].discovery.mean
        sel = data["idle"].selection.mean
        result.check(
            f"[{scenario}] resource discovery takes ~0.5 s",
            0.25 <= disc <= 0.9, f"measured {disc:.2f}s")
        result.check(
            f"[{scenario}] resource selection takes ~3 s at "
            f"{config.n_sites} sites",
            1.8 <= sel <= 4.5, f"measured {sel:.2f}s")

    if set(config.scenarios) >= {"campus", "wan"}:
        for method in ("glogin",):
            campus = all_data["campus"][method].submission.mean
            wan = all_data["wan"][method].submission.mean
            result.check(
                f"{method}: wide-area submission is slower than campus",
                wan > campus, f"campus={campus:.2f}s wan={wan:.2f}s")
    return result


register(ExperimentSpec(
    experiment_id="table1",
    config_factory=Table1Config,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="t1-v1",
    quick_config_factory=lambda: Table1Config(jobs_per_method=8),
))
