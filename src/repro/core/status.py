"""Broker status snapshots.

§3: CrossBroker is responsible for "monitoring the application execution
and reporting on job termination".  This module renders the broker's live
state — jobs by lifecycle stage, agents and their VM occupancy, fair-share
standings — as structured data and as a terminal report, the equivalent of
the EDG ``edg-job-status`` the CrossGrid user would have run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..metrics import AsciiTable

if TYPE_CHECKING:  # pragma: no cover
    from .base import BrokerBase, SubmittedJob


@dataclass(frozen=True)
class JobStatus:
    """One job's externally visible state."""

    job_id: str
    owner: str
    stage: str  # submitted | running | done | failed | rejected
    path: Optional[str]
    sites: tuple
    response_time: Optional[float]


@dataclass(frozen=True)
class AgentStatus:
    agent_id: str
    site: str
    node: str
    batch_free: bool
    interactive_free: bool
    interactive_slots: int


@dataclass
class BrokerSnapshot:
    """Point-in-time view of everything the broker manages."""

    time: float
    jobs: List[JobStatus] = field(default_factory=list)
    agents: List[AgentStatus] = field(default_factory=list)
    priorities: Dict[str, float] = field(default_factory=dict)
    queued_batch: int = 0
    #: Tasks waiting in the pull broker's central queue (0 off-pull).
    pending_tasks: int = 0

    # -- aggregates -------------------------------------------------------
    def count(self, stage: str) -> int:
        return sum(1 for job in self.jobs if job.stage == stage)

    @property
    def running(self) -> int:
        return self.count("running")

    @property
    def free_interactive_vms(self) -> int:
        return sum(1 for a in self.agents if a.interactive_free)

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        out: List[str] = [f"CrossBroker status at t={self.time:.1f}s"]
        jobs_table = AsciiTable(
            ["job", "owner", "stage", "path", "sites", "response (s)"],
            title=f"Jobs ({len(self.jobs)})")
        for job in self.jobs:
            jobs_table.add_row(job.job_id, job.owner, job.stage,
                               job.path or "-", ",".join(job.sites) or "-",
                               job.response_time)
        out.append(jobs_table.render())
        agents_table = AsciiTable(
            ["agent", "site", "node", "batch-vm", "interactive-vms"],
            title=f"Glide-in agents ({len(self.agents)})")
        for agent in self.agents:
            agents_table.add_row(
                agent.agent_id, agent.site, agent.node,
                "free" if agent.batch_free else "busy",
                f"{'free' if agent.interactive_free else 'busy'} "
                f"(x{agent.interactive_slots})")
        out.append(agents_table.render())
        if self.priorities:
            fairness = AsciiTable(["user", "priority (lower=better)"],
                                  title="Fair-share standings", precision=4)
            for user, priority in sorted(self.priorities.items(),
                                         key=lambda kv: kv[1]):
                fairness.add_row(user, priority)
            out.append(fairness.render())
        if self.queued_batch:
            out.append(f"batch jobs waiting in the broker queue: "
                       f"{self.queued_batch}")
        if self.pending_tasks:
            out.append(f"tasks waiting in the pull queue: "
                       f"{self.pending_tasks}")
        return "\n\n".join(out)


def job_stage(submitted: "SubmittedJob") -> str:
    report = submitted.report
    if report.rejected:
        return "rejected"
    if submitted.finished.triggered:
        return "done" if report.error is None else "failed"
    if report.error is not None:
        return "failed"
    if submitted.started.triggered:
        return "running"
    return "submitted"


def snapshot(broker: "BrokerBase",
             submitted_jobs: Optional[List["SubmittedJob"]] = None
             ) -> BrokerSnapshot:
    """Build a snapshot; job rows come from the provided records (the
    broker keeps no list of the jobs it was given)."""
    from ..multiprog import VmKind

    snap = BrokerSnapshot(time=broker.env.now)
    for submitted in submitted_jobs or []:
        report = submitted.report
        snap.jobs.append(JobStatus(
            job_id=report.job_id,
            owner=report.owner,
            stage=job_stage(submitted),
            path=report.path.value if report.path else None,
            sites=tuple(report.sites),
            response_time=(report.response_time
                           if report.response_time > 0 else None),
        ))
    for record in broker.agents.live_agents():
        runtime = record.runtime
        snap.agents.append(AgentStatus(
            agent_id=runtime.agent_id,
            site=record.site,
            node=runtime.node.name,
            batch_free=runtime.batch_free,
            interactive_free=runtime.interactive_free,
            interactive_slots=len(runtime.slots[VmKind.INTERACTIVE]),
        ))
    for user in broker.fairshare.users():
        snap.priorities[user] = broker.fairshare.priority(user)
    snap.queued_batch = broker.queued_batch_count
    snap.pending_tasks = broker.pending_task_count
    return snap
