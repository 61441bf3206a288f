"""Pull-model broker: a central task queue drained by site agents.

The push broker decides *where* a job runs from an MDS snapshot that can
be arbitrarily stale; AliEn (PAPERS.md, cs/0306068) inverts the flow —
jobs wait in a central queue and each site's agent pulls work when it
actually has free capacity, advertising its *current* state with every
poll.  Matching therefore always runs against fresh local truth, at the
price of a heartbeat's worth of placement latency.

Wire protocol (served on ``PULL_PORT`` of the broker host):

``queue.pull(site, attributes) -> job_id | None``
    Long-poll: the broker matches the queue FIFO against the advertised
    attributes; on a hit the task is claimed and its job id returned
    immediately, otherwise the call is *held* up to
    ``long_poll_hold`` seconds waiting for work to arrive before
    returning ``None`` (the agent then sleeps one heartbeat).

Placement itself reuses the GRAM path of :class:`BrokerBase` — a pull
claim substitutes for discovery+selection, producing a single-candidate
"selection" whose latency is the queue wait.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Generator, List, Optional

from ..grid.errors import NoResourcesError, SubmissionError
from ..grid.siteagent import PULL_PORT, SiteAgent
from ..grid.site import Site
from ..jdl import matches
from ..net import NetworkError, RpcError, RpcServer
from ..sim import Event, trace_event
from .base import BehaviorFactory, BrokerBase, BrokerConfig, SubmittedJob
from .matchmaker import Candidate
from .reports import SubmissionPath


@dataclass
class PullBrokerConfig(BrokerConfig):
    """Pull-mode tunables on top of the shared broker knobs."""

    #: Agent sleep between empty polls (jittered ±10% per agent).
    heartbeat: float = 4.0
    #: How long an empty ``queue.pull`` is held open for work to arrive
    #: before the agent is told to sleep.
    long_poll_hold: float = 8.0
    #: Give up on a task no site has claimed after this long.
    max_queue_wait: float = 900.0
    #: ``drain()`` waits at most this long per agent to wind down.  An
    #: agent whose poll is stuck on a dead link (lost response, no
    #: keepalive) cannot observe its stop signal until the link heals;
    #: it stays a harmless daemon rather than holding shutdown hostage.
    drain_grace: float = 30.0


@dataclass
class _PullTask:
    """One queued submission awaiting a claim."""

    submitted: SubmittedJob
    enqueued_at: float
    #: Fires when a site claims the task (value: site name).
    claimed: Event
    site: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)


class PullBroker(BrokerBase):
    """AliEn-style task-queue broker behind the BrokerProtocol surface."""

    mode: ClassVar[str] = "pull"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tasks: List[_PullTask] = []
        #: site -> claims not yet reflected in the site's own FreeCPUs
        #: (claimed but the GRAM submission has not started/failed yet).
        self._inflight: Dict[str, int] = {}
        #: Broadcast event: replaced-then-succeeded whenever the queue
        #: gains work, releasing every held long-poll to re-match.
        self._task_arrived: Event = self.env.event()
        self._draining = False
        self._agents: List[SiteAgent] = []
        self._server = RpcServer(self.network, self.broker_host, PULL_PORT,
                                 name=f"taskqueue@{self.broker_host}")
        self._server.register("queue.pull", self._handle_pull)

    def _default_config(self) -> PullBrokerConfig:
        return PullBrokerConfig()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_site(self, site: Site) -> SiteAgent:
        """Start the pull agent for ``site`` (one per site)."""
        agent = SiteAgent(self.env, self.network, self.rng, site,
                          self.broker_host, port=PULL_PORT,
                          heartbeat=self.config.heartbeat)
        self._agents.append(agent)
        return agent

    @property
    def site_agents(self) -> List[SiteAgent]:
        return list(self._agents)

    # ------------------------------------------------------------------
    # Placement: enqueue, wait for a claim, submit through GRAM
    # ------------------------------------------------------------------
    def _execute(self, submitted: SubmittedJob,
                 factory: BehaviorFactory) -> Generator:
        job = submitted.job
        report = submitted.report
        if job.wants_shared_vm:
            raise SubmissionError(
                f"{job.job_id}: shared-VM jobs need the push broker's "
                "glide-in registry (broker_mode='push')")
        if job.node_number > 1:
            raise SubmissionError(
                f"{job.job_id}: pull mode places single-node jobs only "
                "(co-allocation needs the push broker)")
        if not self._admit(job, scarce=False):
            report.rejected = True
            raise NoResourcesError(f"{job.job_id}: rejected by fair-share")
        report.path = SubmissionPath.PULLED

        wait = self.env.timer(name=f"broker/pull-wait/{job.job_id}")
        task = _PullTask(submitted=submitted, enqueued_at=self.env.now,
                         claimed=self.env.event())
        t = self.env.telemetry
        try:
            for attempt in range(self.config.max_resubmissions + 1):
                report.resubmissions = attempt
                task.claimed = self.env.event()
                task.site = None
                task.enqueued_at = self.env.now
                self._enqueue(task)
                yield task.claimed | wait.arm(self.config.max_queue_wait)
                if not task.claimed.triggered:
                    self._dequeue(task)
                    raise NoResourcesError(
                        f"{job.job_id}: no site pulled the task within "
                        f"{self.config.max_queue_wait:.0f}s")
                latency = self.env.now - task.enqueued_at
                report.selection_time += latency
                if t is not None:
                    t.histogram("broker.match_latency.pull").observe(latency)
                assert task.site is not None
                candidate = Candidate(
                    task.site,
                    str(task.attributes.get("GatekeeperHost",
                                            f"gk.{task.site}")),
                    dict(task.attributes), 0.0)
                try:
                    started = yield from self._submit_via_gram(
                        submitted, factory, candidate, rank=0)
                except (SubmissionError, RpcError, NetworkError):
                    # The site broke between claim and submit; requeue.
                    self._release_claim(task.site)
                    continue
                self._release_claim(task.site)
                if started:
                    yield from self._finish_measurement(submitted)
                    return
                # Queued past the on-line-scheduling bound: the claim was
                # optimistic (capacity raced away) — requeue for another
                # site to pull.
            raise NoResourcesError(
                f"{job.job_id}: claims exhausted after "
                f"{self.config.max_resubmissions + 1} attempts")
        finally:
            wait.cancel()

    # ------------------------------------------------------------------
    # Queue mechanics
    # ------------------------------------------------------------------
    def _enqueue(self, task: _PullTask) -> None:
        self._tasks.append(task)
        trace_event(self.env, "task-queued", job=task.submitted.job.job_id,
                    depth=len(self._tasks))
        t = self.env.telemetry
        if t is not None:
            t.gauge("broker.queue.tasks").set(len(self._tasks))
        arrived = self._task_arrived
        self._task_arrived = self.env.event()
        arrived.succeed()

    def _dequeue(self, task: _PullTask) -> None:
        if task in self._tasks:
            self._tasks.remove(task)
            t = self.env.telemetry
            if t is not None:
                t.gauge("broker.queue.tasks").set(len(self._tasks))

    def _release_claim(self, site: str) -> None:
        left = self._inflight.get(site, 0) - 1
        if left > 0:
            self._inflight[site] = left
        else:
            self._inflight.pop(site, None)

    def _match(self, site: str, attributes: Dict[str, Any]) -> Optional[_PullTask]:
        """First queued task (FIFO) the advertised capacity can run."""
        free = int(attributes.get("FreeCPUs", 0)) - self._inflight.get(site, 0)
        if free <= 0:
            return None
        for task in self._tasks:
            job = task.submitted.job
            if matches(job.requirements, job.matchmaking_context(),
                       attributes):
                return task
        return None

    def _handle_pull(self, site: str,
                     attributes: Dict[str, Any]) -> Generator:
        """``queue.pull`` handler (runs inside the RPC serve process)."""
        t = self.env.telemetry
        if t is not None:
            t.counter("broker.pulls").inc()
        deadline = self.env.now + self.config.long_poll_hold
        hold = self.env.timer(name=f"broker/pull-hold/{site}")
        try:
            while True:
                task = self._match(site, attributes)
                if task is not None:
                    task.site = site
                    task.attributes = dict(attributes)
                    self._dequeue(task)
                    self._inflight[site] = self._inflight.get(site, 0) + 1
                    task.claimed.succeed(site)
                    trace_event(self.env, "task-claimed",
                                job=task.submitted.job.job_id, site=site,
                                wait=self.env.now - task.enqueued_at)
                    if t is not None:
                        t.counter("broker.pulls.claimed").inc()
                    return task.submitted.job.job_id
                if self._draining or self.env.now >= deadline:
                    if t is not None:
                        t.counter("broker.pulls.empty").inc()
                    return None
                yield self._task_arrived | hold.arm(deadline - self.env.now)
        finally:
            hold.cancel()

    # ------------------------------------------------------------------
    # Protocol surface
    # ------------------------------------------------------------------
    def drain(self) -> Generator:
        """Stop the site agents and close the task-queue listener.

        Waits up to ``drain_grace`` per agent: agents stuck mid-poll on a
        failed network path are abandoned as daemons instead of blocking
        shutdown until the outage ends.
        """
        self._draining = True
        for agent in self._agents:
            agent.stop()
        # Release held long-polls so blocked agents get their None now.
        arrived = self._task_arrived
        self._task_arrived = self.env.event()
        arrived.succeed()
        grace = self.env.timer(name="broker/drain-grace")
        for agent in self._agents:
            if not agent.stopped.triggered:
                yield agent.stopped | grace.arm(self.config.drain_grace)
        grace.cancel()
        self._server.close()

    @property
    def pending_task_count(self) -> int:
        return len(self._tasks)


__all__ = ["PullBroker", "PullBrokerConfig", "PULL_PORT"]
