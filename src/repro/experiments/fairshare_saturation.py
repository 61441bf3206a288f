"""Fair-share saturation study (§5.1's protection claim).

"By using this user-priority scheme, we prevent users from always
submitting their jobs as 'interactive' and therefore saturating the
system, preventing real interactive jobs from being executed.  If there
are not enough available resources, jobs belonging to users with worse
priority are rejected."

Scenario: a *greedy* user floods a small grid with interactive jobs for a
warm-up phase, building up a bad priority; a *modest* user then competes
for the last free machine.  With fair-share on, the greedy user's late
submissions are rejected under scarcity while the modest user's go
through; with the literal every-user-equal baseline (half-life -> 0
effectively resets priorities), greed pays no penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from ..calibration import Calibration, DEFAULT_CALIBRATION
from ..metrics import AsciiTable
from ..runner.spec import CellKey, ExperimentSpec, register
from .common import ConfigCodec, ExperimentResult

if TYPE_CHECKING:
    from ..jdl import JobDescription


@dataclass
class SaturationConfig(ConfigCodec):
    n_nodes: int = 2
    warmup_jobs: int = 6
    contest_rounds: int = 4
    job_runtime: float = 120.0
    seed: int = 77
    half_life: float = 3600.0
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)


def _interactive_job(owner: str) -> JobDescription:
    from ..jdl import JobCategory, JobDescription, MachineAccess

    return JobDescription(
        executable="iapp", owner=owner,
        category=JobCategory.INTERACTIVE,
        machine_access=MachineAccess.EXCLUSIVE)


def _run(config: SaturationConfig) -> Dict[str, List[bool]]:
    from ..core import BrokerConfig
    from ..scenario import Scenario
    from ..workloads import immediate_output_app

    calibration = config.calibration.with_fairshare(
        half_life=config.half_life, update_interval=30.0,
        scarcity_margin=0.05)
    handle = Scenario(sites=1, scenario="campus",
                      nodes_per_site=config.n_nodes, seed=config.seed,
                      calibration=calibration).build()
    tb = handle.testbed
    env = handle.env
    broker = handle.configure_broker(BrokerConfig(scarcity_factor=2.0))
    outcomes: Dict[str, List[bool]] = {"greedy": [], "modest": []}

    def app_factory(rank):
        return immediate_output_app(run_for=config.job_runtime)

    def driver() -> Generator:
        # Re-armable pacing timer for both submission loops below.
        pace = env.timer(name="saturation/pace")
        # Warm-up: greedy hammers the grid with interactive jobs,
        # degrading its priority (a_f = 2 per §5.1).
        for i in range(config.warmup_jobs):
            submitted = broker.submit(_interactive_job("greedy"), app_factory)
            yield submitted.process
            yield pace.arm(60.0)
        # Let running jobs drain so exactly the *last* machines are in
        # contention during the contest.
        yield env.timeout(config.job_runtime + 60.0)

        # Contest: with one node busy, greedy and modest both want the
        # last free machine, repeatedly.
        blocker = broker.submit(_interactive_job("background"),
                                lambda r: immediate_output_app(run_for=1e6),
                                daemon=True)  # blocks a node for the rest of the run
        yield blocker.started
        tb.publish_all_now()
        for round_idx in range(config.contest_rounds):
            for owner in ("greedy", "modest"):
                submitted = broker.submit(_interactive_job(owner),
                                          app_factory)
                yield submitted.process
                outcomes[owner].append(bool(submitted.report.success))
                if submitted.report.success:
                    yield submitted.finished
                tb.publish_all_now()
                yield pace.arm(30.0)
        return outcomes

    proc = env.process(driver(), name="saturation")
    env.run(until=proc)
    return proc.value


# ---------------------------------------------------------------------------
# Runner cells: the contest is one indivisible simulation (a single cell),
# but routing it through the spec still buys caching and unified reporting.
# ---------------------------------------------------------------------------
def plan_cells(config: SaturationConfig) -> List[CellKey]:
    return [("contest",)]


def run_cell(config: SaturationConfig, key: CellKey) -> Dict[str, List[bool]]:
    assert key == ("contest",)
    return _run(config)


def merge_cells(config: SaturationConfig,
                payloads: Dict[CellKey, Dict[str, List[bool]]]) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fairshare-saturation",
        title="Fair-share rejection protects modest users under scarcity",
        paper_reference="§5.1 (priority-based rejection)")
    outcomes = payloads[("contest",)]
    result.data["outcomes"] = outcomes

    table = AsciiTable(["user", "contest submissions", "accepted",
                        "rejected"],
                       title="Contest phase (one free machine, two users)")
    for owner in ("greedy", "modest"):
        accepted = sum(outcomes[owner])
        table.add_row(owner, len(outcomes[owner]), accepted,
                      len(outcomes[owner]) - accepted)
    result.tables.append(table)

    greedy_rejects = outcomes["greedy"].count(False)
    modest_accepts = outcomes["modest"].count(True)
    result.check(
        "the greedy user's interactive flood gets rejected under scarcity",
        greedy_rejects >= 1,
        f"{greedy_rejects}/{len(outcomes['greedy'])} rejected")
    result.check(
        "the modest user is never locked out",
        modest_accepts == len(outcomes["modest"]),
        f"{modest_accepts}/{len(outcomes['modest'])} accepted")
    return result


register(ExperimentSpec(
    experiment_id="fairshare-saturation",
    config_factory=SaturationConfig,
    plan=plan_cells,
    run_cell=run_cell,
    merge=merge_cells,
    cache_salt="fs-v1",
))
