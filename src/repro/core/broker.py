"""CrossBroker: the push-model resource-management service for batch *and*
interactive jobs (the paper's primary contribution).

Submission paths (Figure 5):

1. **batch** — discovery → selection → glide-in agent through GRAM + the
   local queue → job dispatched to the agent's ``batch-vm``;
2. **interactive, exclusive** — discovery → selection over *idle* machines
   → direct GRAM submission (no agent), two-phase commit + input staging;
3. **interactive, shared** — local registry lookup for a free
   ``interactive-vm`` → direct broker→agent RPC (no Globus, no queue);
   if no agent is free, plant one on an idle machine like case 1;
   if nothing at all, the submission *fails* ("An interactive application
   will never pre-empt another already-running interactive application").

Plus the §3 mechanisms: on-line scheduling (resubmit if the job sits in a
remote queue), exclusive temporal leases at match time, randomized
selection among rank ties, fair-share admission (§5.1), and a broker-side
queue for batch jobs when the whole grid is full.

The mode-independent machinery (submission records, the GRAM path,
fair-share charging, output retrieval) lives in
:class:`~repro.core.base.BrokerBase`, the contract every mode keeps;
this module adds the *push* placement logic.  Sibling modes:
:class:`~repro.core.pull.PullBroker` and
:class:`~repro.core.data.DataAwareBroker`; construct any of them through
:func:`repro.core.make_broker`.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Generator, List, Tuple

from ..grid.errors import NoResourcesError, SubmissionError
from ..grid.gram import GramClient
from ..grid.mpi import plan_allocation, subjobs_for
from ..multiprog import AGENT_PORT, AgentRecord, AgentRuntime
from ..net import NetworkError, RpcClient, RpcError
from ..sim import Event, trace_event, trace_span
from .base import (LEASE_DURATION, BehaviorFactory, BrokerBase, BrokerConfig,
                   SubmittedJob, stage)
from .fairshare import af_batch, af_displaced_batch
from .reports import SubmissionPath

__all__ = ["BrokerConfig", "CrossBroker", "SubmittedJob", "BehaviorFactory"]

#: Local registry lookup cost for shared-VM jobs (combined
#: discovery+selection step of Table I, "kept locally by CrossBroker").
REGISTRY_LOOKUP_COST = 0.05
#: Interactive VM slots per planted agent (§5.2 future-work knob).
INTERACTIVE_SLOTS_PER_AGENT = 1


class CrossBroker(BrokerBase):
    """The push-model broker service, bound to its host on the network."""

    mode: ClassVar[str] = "push"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: agent_id -> (owner, job_id, cpus) of the batch job on its batch-vm.
        self._agent_batch: Dict[str, Tuple[str, str, int]] = {}
        #: Exclusive temporal access for interactive VMs: agent_id -> lease
        #: expiry (two concurrent shared submissions must not race for the
        #: same free slot).
        self._vm_claims: Dict[str, float] = {}
        #: Timestamps of recent shared-VM misses (drives the adaptive
        #: degree of multiprogramming).
        self._vm_miss_times: List[float] = []
        self._queued_batch: List[SubmittedJob] = []

    # ------------------------------------------------------------------
    # Top-level dispatch
    # ------------------------------------------------------------------
    def _execute(self, submitted: SubmittedJob,
                 factory: BehaviorFactory) -> Generator:
        job = submitted.job
        if job.wants_shared_vm:
            yield from self._run_shared(submitted, factory)
        elif job.is_interactive:
            yield from self._run_exclusive(submitted, factory)
        else:
            yield from self._run_batch(submitted, factory)

    # ------------------------------------------------------------------
    # Path 1: batch (+ glide-in agent)
    # ------------------------------------------------------------------
    def _run_batch(self, submitted: SubmittedJob,
                   factory: BehaviorFactory) -> Generator:
        job = submitted.job
        report = submitted.report
        candidates = yield from self._discover_and_select(submitted)

        # A batch job can also land on an existing agent's free batch-vm.
        placed = False
        for record in self.agents.free_batch():
            report.dispatched_at = self.env.now
            try:
                yield from self._dispatch_batch_to_agent(submitted, factory,
                                                         record)
                placed = True
                break
            except (NoResourcesError, RpcError, NetworkError):
                continue
        if placed:
            report.path = SubmissionPath.BATCH_WITH_AGENT
            return

        attempts = 0
        tried: List[str] = []
        # One re-armable poll timer for this submission's whole queue
        # wait (arm-per-cycle consumes exactly the eids the per-cycle
        # timeout did, so the deterministic event order is unchanged).
        poll = self.env.timer(name=f"broker/queue-poll/{job.job_id}")
        while True:
            target = next((c for c in candidates
                           if c.site not in tried
                           and self._site_has_capacity(c)), None)
            if target is not None:
                report.path = SubmissionPath.BATCH_WITH_AGENT
                lease = self.leases.acquire(target.site, job.job_id,
                                            job.node_number)
                # Table I's "job + agent" submission time spans the agent
                # transfer/boot *and* the job dispatch.
                report.dispatched_at = self.env.now
                try:
                    record = yield from self._plant_agent(submitted, target)
                    yield from self._dispatch_batch_to_agent(
                        submitted, factory, record)
                except (SubmissionError, RpcError):
                    # The site's queue filled between advert and submit
                    # (the gatekeeper forwards its error over RPC); try the
                    # next candidate, then fall back to the broker queue.
                    tried.append(target.site)
                    continue
                finally:
                    self.leases.release(lease)
                return
            # Whole grid busy: park in the broker queue (Figure 5, arrow 2).
            report.path = SubmissionPath.BROKER_QUEUED
            attempts += 1
            trace_event(self.env, "broker-queued", job=job.job_id,
                        attempt=attempts)
            self._queued_batch.append(submitted)
            t = self.env.telemetry
            if t is not None:
                t.gauge("broker.queue.batch").set(len(self._queued_batch))
            try:
                yield poll.arm(self.config.queue_poll_interval)
            finally:
                self._queued_batch.remove(submitted)
                if t is not None:
                    t.gauge("broker.queue.batch").set(len(self._queued_batch))
            outcome = yield from self.selector.discover()
            adverts, _ = outcome
            self._note_grid_size(adverts)
            selection = yield from self.selector.select(job, adverts)
            candidates = selection.candidates
            tried = []

    # ------------------------------------------------------------------
    # Path 2: interactive, exclusive access
    # ------------------------------------------------------------------
    def _run_exclusive(self, submitted: SubmittedJob,
                       factory: BehaviorFactory) -> Generator:
        job = submitted.job
        report = submitted.report
        report.path = SubmissionPath.INTERACTIVE_EXCLUSIVE
        candidates = yield from self._discover_and_select(submitted)
        idle = [c for c in candidates
                if self.leases.available(c.site, c.free_cpus, 1)]

        # §5.1: under scarcity (this job would take some of the last free
        # CPUs) jobs of users with worse priority are rejected.
        free_total = sum(
            max(c.free_cpus - self.leases.reserved_cpus(c.site), 0)
            for c in candidates)
        scarce = free_total <= job.node_number * self.config.scarcity_factor
        if not self._admit(job, scarce=scarce):
            report.rejected = True
            raise NoResourcesError(f"{job.job_id}: rejected by fair-share")
        if not idle:
            raise NoResourcesError(
                f"{job.job_id}: no idle machine for exclusive access")

        if job.node_number > 1:
            yield from self._submit_parallel_exclusive(submitted, factory, idle)
            return

        tried: List[str] = []
        for attempt in range(self.config.max_resubmissions + 1):
            target = next((c for c in idle if c.site not in tried), None)
            if target is None:
                raise NoResourcesError(
                    f"{job.job_id}: resubmission options exhausted")
            tried.append(target.site)
            report.resubmissions = attempt
            started = yield from self._submit_via_gram(submitted, factory,
                                                       target, rank=0)
            if started:
                return
        raise NoResourcesError(f"{job.job_id}: could not start anywhere")

    # ------------------------------------------------------------------
    # Path 3: interactive, shared access
    # ------------------------------------------------------------------
    def _run_shared(self, submitted: SubmittedJob,
                    factory: BehaviorFactory) -> Generator:
        job = submitted.job
        report = submitted.report
        # Combined discovery+selection: the VM registry is local state.
        with stage(self.env, "match", "broker.match_latency.registry",
                   job=job.job_id, path="registry"):
            yield self.env.timeout(self.rng.jitter(
                "broker/registry", REGISTRY_LOOKUP_COST, 0.2))
        report.discovery_time = 0.0
        report.selection_time = self.env.now - report.submitted_at

        need = job.node_number
        free_vms = [r for r in self.agents.free_interactive()
                    if self._vm_claims.get(r.runtime.agent_id, 0.0)
                    <= self.env.now]
        for record in free_vms[:need]:
            self._vm_claims[record.runtime.agent_id] = \
                self.env.now + LEASE_DURATION
        if len(free_vms) >= need:
            report.path = SubmissionPath.INTERACTIVE_SHARED_VM
            if not self._admit(job, scarce=False):
                report.rejected = True
                raise NoResourcesError(f"{job.job_id}: rejected by fair-share")
            try:
                yield from self._dispatch_interactive_to_agents(
                    submitted, factory, free_vms[:need])
            except (RpcError, NetworkError, NoResourcesError):
                # An agent vanished between lookup and dispatch (its batch
                # job completed); fall through to planting a fresh one —
                # unless some subjobs already landed (partial dispatch is
                # not retryable wholesale).
                for record in free_vms[:need]:
                    self._vm_claims.pop(record.runtime.agent_id, None)
                if report.sites:
                    raise
            else:
                return

        # Not enough agents: plant new ones on idle machines (Figure 5:
        # "CrossBroker searches for an idle machine and submits the agent
        # and the application in a similar way to... a batch job").
        self._vm_miss_times.append(self.env.now)
        trace_event(self.env, "vm-miss", job=job.job_id)
        report.path = SubmissionPath.INTERACTIVE_SHARED_NEW_AGENT
        candidates = yield from self._discover_and_select(submitted)
        idle = [c for c in candidates
                if self.leases.available(c.site, c.free_cpus, 1)]
        shortfall = need - len(free_vms)
        if sum(c.free_cpus for c in idle) < shortfall:
            if not self._admit(job, scarce=True):
                report.rejected = True
            # §5.2: "if there are not enough machines (with or without
            # agents) to execute an interactive application, its submission
            # will fail."
            raise NoResourcesError(
                f"{job.job_id}: not enough machines for {need} shared slots")
        if not self._admit(job, scarce=False):
            report.rejected = True
            raise NoResourcesError(f"{job.job_id}: rejected by fair-share")

        records = list(free_vms)
        for candidate in idle:
            if len(records) >= need:
                break
            lease = self.leases.acquire(candidate.site, job.job_id)
            try:
                record = yield from self._plant_agent(submitted, candidate)
                records.append(record)
            finally:
                self.leases.release(lease)
        yield from self._dispatch_interactive_to_agents(
            submitted, factory, records[:need])

    # ------------------------------------------------------------------
    # Push-specific helpers
    # ------------------------------------------------------------------
    def _site_has_capacity(self, candidate) -> bool:
        if self.leases.available(candidate.site, candidate.free_cpus, 1):
            return True
        max_queue = int(candidate.attributes.get("MaxQueuedJobs", 999999))
        willingness = 2 * max(int(candidate.attributes.get("TotalCPUs", 1)), 1)
        return candidate.queue_length < min(max_queue, willingness)

    def _interactive_slots_for_next_agent(self) -> int:
        """Degree of multiprogramming for a freshly planted agent (§7)."""
        base = INTERACTIVE_SLOTS_PER_AGENT
        if not self.config.adaptive_multiprogramming:
            return base
        horizon = self.env.now - self.config.adaptive_window
        self._vm_miss_times = [t for t in self._vm_miss_times if t >= horizon]
        return min(base + len(self._vm_miss_times),
                   self.config.max_interactive_slots)

    def _submit_parallel_exclusive(self, submitted: SubmittedJob,
                                   factory: BehaviorFactory,
                                   idle) -> Generator:
        """Co-allocated MPICH submission over idle machines."""
        job = submitted.job
        report = submitted.report
        pool = [(c.site, max(c.free_cpus - self.leases.reserved_cpus(c.site), 0))
                for c in idle]
        slices = plan_allocation(job, pool)
        subjobs = subjobs_for(job, slices)
        by_site = {c.site: c for c in idle}
        report.dispatched_at = self.env.now
        yield from self._charge_shadow_setup(submitted)
        finish_events: List[Event] = []
        start_events: List[Event] = []
        for subjob in subjobs:
            candidate = by_site[subjob.site]
            lease = self.leases.acquire(candidate.site, job.job_id)
            gram = GramClient(self.env, self.network, self.rng,
                              self.broker_host, candidate.gatekeeper,
                              self.costs)
            with trace_span(self.env, "gram_submit", job=job.job_id,
                            site=candidate.site, rank=subjob.rank):
                try:
                    yield from gram.connect()
                    setup = None
                    # §4: MPICH-G2 gets one Console Agent per subjob;
                    # MPICH-P4 (and sequential) a single CA on the master
                    # rank.
                    if submitted.session is not None \
                            and subjob.rank < job.console_agents:
                        setup = submitted.session.make_setup(
                            candidate.gatekeeper, subjob.rank)
                    ticket = yield from gram.submit(
                        subjob.label, job.owner, factory(subjob.rank),
                        interactive=True, two_phase=True,
                        priority=self.fairshare.ordering_key(job.owner),
                        setup=setup)
                finally:
                    self.leases.release(lease)
                    yield from gram.close()
            start_events.append(ticket.handle.started)
            finish_events.append(ticket.handle.finished)
            if candidate.site not in report.sites:
                report.sites.append(candidate.site)

        yield self.env.all_of(start_events)
        self._started(submitted)
        self.env.process(self._watch_finish(submitted, finish_events),
                         name=f"broker/watch/{job.job_id}")

    # -- agent path ----------------------------------------------------------
    def _plant_agent(self, submitted: SubmittedJob, candidate) -> Generator:
        """Submit a glide-in agent to a site through GRAM and wait for it."""
        job = submitted.job
        ready_records: List[AgentRecord] = []
        with trace_span(self.env, "agent_bootstrap", job=job.job_id,
                        site=candidate.site):
            gram = GramClient(self.env, self.network, self.rng,
                              self.broker_host, candidate.gatekeeper,
                              self.costs)
            yield from gram.connect()
            # Glide-in sandbox transfer (the agent binary) dominates staging.
            yield self.env.timeout(self.rng.jitter(
                "broker/glidein-transfer", self.costs.glidein_transfer, 0.10))

            def on_ready(runtime: AgentRuntime) -> None:
                ready_records.append(
                    self.agents.register(runtime, candidate.site))

            # The runtime object is created lazily on the chosen node via a
            # bootstrap behavior (the LRMS picks the node, not the broker).
            interactive_slots = self._interactive_slots_for_next_agent()

            def bootstrap(ctx) -> Generator:
                runtime = AgentRuntime(
                    self.env, self.network, self.rng, ctx.node,
                    self.costs, interactive_slots=interactive_slots)
                inner = runtime.behavior(on_ready=on_ready)
                result = yield from inner(ctx)
                return result

            try:
                ticket = yield from gram.submit(f"glidein/{candidate.site}",
                                                "crossbroker", bootstrap,
                                                daemon=True)
            except BaseException:
                yield from gram.close()
                raise
            yield from gram.close()
            yield ticket.handle.started
            # Wait for the runtime to boot and register (re-armable poll
            # timer: no per-cycle event garbage).
            boot_poll = self.env.timer(name=f"broker/boot-poll/{job.job_id}")
            while not ready_records:
                yield boot_poll.arm(0.05)
        record = ready_records[0]
        trace_event(self.env, "agent-ready", agent=record.runtime.agent_id,
                    site=candidate.site, job=job.job_id)
        return record

    def _run_on_agent(self, submitted: SubmittedJob, factory: BehaviorFactory,
                      record: AgentRecord, rank: int,
                      interactive: bool) -> Generator:
        """Dispatch one subjob to an agent's VM over a direct RPC channel
        (no Globus, no queue) and wait for it to start; returns the
        agent's job ticket."""
        job = submitted.job
        if interactive:
            label, loss = f"{job.job_id}/r{rank}", job.performance_loss
        else:
            label, loss = job.job_id, 0
        setup = None
        if submitted.session is not None:
            setup = submitted.session.make_setup(record.runtime.node.name,
                                                 rank)
        rpc = RpcClient(self.network, self.broker_host,
                        record.runtime.node.name, AGENT_PORT,
                        label=f"broker->{record.runtime.agent_id}")
        yield from rpc.connect()
        # Authenticated dispatch channel setup (lightweight, non-Globus).
        yield self.env.timeout(self.rng.jitter(
            "broker/agent-dispatch", self.costs.agent_dispatch_rpc, 0.12))
        try:
            ticket = yield from rpc.call(
                "agent.run_job", label, factory(rank), interactive, loss,
                setup=setup, nbytes=2048)
        finally:
            yield from rpc.close()
        yield ticket.started
        return ticket

    def _dispatch_batch_to_agent(self, submitted: SubmittedJob,
                                 factory: BehaviorFactory,
                                 record: AgentRecord) -> Generator:
        job = submitted.job
        with trace_span(self.env, "dispatch", job=job.job_id,
                        site=record.site, agent=record.runtime.agent_id,
                        vm="batch"):
            yield from self._charge_shadow_setup(submitted)
            ticket = yield from self._run_on_agent(submitted, factory, record,
                                                   0, interactive=False)
        submitted.report.sites.append(record.site)
        self._agent_batch[record.runtime.agent_id] = (
            job.owner, job.job_id, job.node_number)
        self._started(submitted)
        self.env.process(
            self._watch_batch_on_agent(submitted, factory, record, ticket),
            name=f"broker/watch/{job.job_id}")

    def _watch_batch_on_agent(self, submitted: SubmittedJob,
                              factory: BehaviorFactory, record: AgentRecord,
                              ticket) -> Generator:
        """Monitor a batch job on an agent; resubmit if the agent dies.

        §5.2: "Special care has to be taken if the agent is killed (by the
        local scheduler, by failure of the machine it is running on, etc.).
        In this case, new agents will be submitted when possible."  There
        is no checkpointing — the job restarts from scratch elsewhere.
        """
        job = submitted.job
        try:
            outcome = [(yield ticket.finished)]
        except Exception as exc:  # noqa: BLE001 - includes Interrupt
            outcome = exc
        self.fairshare.job_finished(job.owner, job.job_id)
        self._agent_batch.pop(record.runtime.agent_id, None)
        if isinstance(outcome, list):
            yield from self._retrieve_output(submitted)
            self._finish(submitted, outcome)
            trace_event(self.env, "finished", job=job.job_id)
        elif record.runtime.dead.triggered \
                and submitted.report.resubmissions \
                < self.config.max_resubmissions:
            submitted.report.resubmissions += 1
            trace_event(self.env, "agent-died-resubmit", job=job.job_id,
                        agent=record.runtime.agent_id,
                        attempt=submitted.report.resubmissions)
            try:
                yield from self._run_batch(submitted, factory)
            except Exception as resubmit_exc:  # noqa: BLE001
                self._finish(submitted, resubmit_exc)
        else:
            self._finish(submitted, outcome)
            trace_event(self.env, "finished", job=job.job_id, failed=True)

    def _dispatch_interactive_to_agents(self, submitted: SubmittedJob,
                                        factory: BehaviorFactory,
                                        records: List[AgentRecord]) -> Generator:
        job = submitted.job
        report = submitted.report
        report.dispatched_at = self.env.now
        yield from self._charge_shadow_setup(submitted)
        finish_events: List[Event] = []
        displaced: List[Tuple[str, str, float]] = []
        for rank, record in enumerate(records):
            with trace_span(self.env, "dispatch", job=job.job_id,
                            site=record.site, agent=record.runtime.agent_id,
                            rank=rank, vm="interactive"):
                ticket = yield from self._run_on_agent(
                    submitted, factory, record, rank, interactive=True)
            finish_events.append(ticket.finished)
            if record.site not in report.sites:
                report.sites.append(record.site)
            # §5.1: the displaced batch job's owner is charged the cheap
            # a_f while it shares its machine.
            batch = self._agent_batch.get(record.runtime.agent_id)
            if batch is not None:
                owner, job_id, _ = batch
                displaced.append((owner, job_id, af_batch()))
                self.fairshare.reweight_job(
                    owner, job_id, af_displaced_batch(job.performance_loss))

        for record in records:
            self._vm_claims.pop(record.runtime.agent_id, None)
        self._started(submitted)

        def cleanup() -> Generator:
            yield from self._watch_finish(submitted, finish_events)
            for owner, job_id, original_af in displaced:
                self.fairshare.reweight_job(owner, job_id, original_af)

        self.env.process(cleanup(), name=f"broker/watch/{job.job_id}")

    # -- introspection ---------------------------------------------------
    @property
    def queued_batch_count(self) -> int:
        return len(self._queued_batch)
