"""Shared broker machinery: the state and helpers every broker mode uses.

:class:`BrokerBase` is the concrete common core behind the
:class:`~repro.core.protocol.BrokerProtocol` contract.  It owns the
submission lifecycle (record creation, the top-level dispatch process,
report bookkeeping), the GRAM submission path with §3's on-line
scheduling, fair-share admission, lease handling, output retrieval, and
the optional replica-catalog staging step — everything that is mode
independent.  Subclasses implement :meth:`_execute` (how one submission
finds a resource) and may override the :meth:`_refine_candidates` and
:meth:`_pick_replica` hooks:

* :class:`~repro.core.broker.CrossBroker` — the paper's push-model
  scheduler (MDS discovery -> selection -> GRAM / glide-in agents);
* :class:`~repro.core.pull.PullBroker` — AliEn-style central task queue
  drained by per-site agents over long-poll RPC;
* :class:`~repro.core.data.DataAwareBroker` — Gridbus-style push broker
  whose ranking adds transfer-cost terms and deadline/budget filters.

The split is pure code motion from the original ``CrossBroker``: on the
push path every event and RNG draw is issued in the same order as
before, which is what keeps the golden experiment renders byte-stable
across the refactor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Generator, List, Optional, Tuple

from ..calibration import Calibration
from ..codec import ConfigCodec
from ..grid.errors import NoResourcesError
from ..grid.gram import GramClient
from ..grid.staging import retrieve_output, stage_input
from ..grid.testbed import BROKER_HOST, MDS_HOST
from ..jdl import JobDescription
from ..multiprog import AgentRegistry
from ..net import Network, NetworkError
from ..sim import (Environment, Event, Process, RandomStreams, trace_event,
                   trace_span)
from ..streaming import InteractiveSession
from .fairshare import FairShareAccounting, af_batch, af_interactive
from .leases import LeaseTable
from .replicas import ReplicaCatalog
from .reports import SubmissionReport
from .selection import ResourceSelector

#: behavior_factory(rank) -> Behavior
BehaviorFactory = Callable[[int], Callable]


@dataclass
class BrokerConfig(ConfigCodec):
    """Tunables of the broker's §3 mechanisms (shared by every mode)."""

    #: Exclusive temporal access: how long a match reserves the resource.
    lease_duration: float = 30.0
    #: On-line scheduling: if an interactive job has not *started* on the
    #: remote site within this bound, cancel and resubmit elsewhere.
    queued_resubmit_timeout: float = 45.0
    max_resubmissions: int = 3
    #: Poll period for batch jobs parked in the broker queue.
    queue_poll_interval: float = 30.0
    #: Local registry lookup cost for shared-VM jobs (combined
    #: discovery+selection step of Table I, "kept locally by CrossBroker").
    registry_lookup_cost: float = 0.05
    index_host: str = MDS_HOST
    #: Interactive VM slots per planted agent (§5.2 future-work knob).
    interactive_slots_per_agent: int = 1
    #: §7 future work: "control of the degree of multiprogramming, so as
    #: to dynamically adapt this".  When on, each shared-VM miss within
    #: the adaptation window raises the slot count of the next planted
    #: agent (up to the cap).
    adaptive_multiprogramming: bool = False
    adaptive_window: float = 300.0
    max_interactive_slots: int = 4
    #: Fair-share scarcity threshold: a submission is "scarce" when it
    #: would take some of the last free CPUs (free <= need x this).
    scarcity_factor: float = 1.0
    #: §6.1's per-site refresh phase.  Off, selection trusts the (possibly
    #: stale) MDS adverts verbatim — the stale-information regime of the
    #: ``broker_modes`` experiment.
    refresh_sites: bool = True


@dataclass
class SubmittedJob:
    """Broker-side record returned to the submitting user."""

    job: JobDescription
    report: SubmissionReport
    #: Fires when every subjob has started on its node.
    started: Event = None  # type: ignore[assignment]
    #: Fires with the list of subjob results (or fails).
    finished: Event = None  # type: ignore[assignment]
    session: Optional[InteractiveSession] = None
    process: Optional[Process] = None

    def wait(self) -> Generator:
        result = yield self.finished
        return result


class BrokerBase:
    """Mode-independent broker core, bound to its host on the network."""

    #: Scenario-facing mode name (``push`` | ``pull`` | ``data``).
    mode: ClassVar[str] = "push"

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 calibration: Calibration, broker_host: str = BROKER_HOST,
                 config: Optional[BrokerConfig] = None,
                 replicas: Optional[ReplicaCatalog] = None) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.calibration = calibration
        self.costs = calibration.middleware
        self.broker_host = broker_host
        self.config = config or self._default_config()
        self.selector = ResourceSelector(env, network, rng, self.costs,
                                         broker_host,
                                         index_host=self.config.index_host)
        self.selector.refresh_enabled = self.config.refresh_sites
        self.leases = LeaseTable(env, self.config.lease_duration)
        self.fairshare = FairShareAccounting(env, calibration.fairshare,
                                             total_cpus=1)
        self.agents = AgentRegistry(env)
        self.replicas = replicas

    def _default_config(self) -> BrokerConfig:
        return BrokerConfig()

    # ------------------------------------------------------------------
    # Public API (the BrokerProtocol surface)
    # ------------------------------------------------------------------
    def submit(self, job: JobDescription, behavior_factory: BehaviorFactory,
               ui_host: str = "ui",
               attach_console: Optional[bool] = None,
               daemon: bool = False) -> SubmittedJob:
        """Submit a job; returns immediately with the tracking record.

        ``attach_console`` defaults to True for interactive jobs; pass True
        for a batch job to capture its first output through the streaming
        layer (as the Table I measurement harness does).

        ``daemon=True`` declares a background-by-design job (a glide-in
        seed, a blocking load generator) that is *expected* to outlive
        the run: the submission chain it spawns inherits the flag and
        the lifecycle sanitizer exempts it.
        """
        report = SubmissionReport(job_id=job.job_id, owner=job.owner,
                                  submitted_at=self.env.now)
        console = job.is_interactive if attach_console is None else attach_console
        session = None
        if console:
            session = InteractiveSession(
                self.env, self.network, self.rng,
                self.calibration.streaming, ui_host, job.streaming_mode,
                n_subjobs=job.console_agents, port=job.shadow_port)
        submitted = SubmittedJob(job=job, report=report,
                                 started=self.env.event(),
                                 finished=self.env.event(),
                                 session=session)
        submitted.process = self.env.process(
            self._run(submitted, behavior_factory),
            name=f"broker/{job.job_id}", daemon=daemon)
        t = self.env.telemetry
        if t is not None:
            t.counter("broker.submits").inc()
            kind = "interactive" if job.is_interactive else "batch"
            t.counter(f"broker.submits.{kind}").inc()
        return submitted

    def submit_and_wait(self, job: JobDescription,
                        behavior_factory: BehaviorFactory,
                        ui_host: str = "ui",
                        attach_console: Optional[bool] = None) -> Generator:
        submitted = self.submit(job, behavior_factory, ui_host, attach_console)
        yield submitted.finished
        return submitted

    def cancel(self, submitted: SubmittedJob,
               reason: str = "cancelled by user") -> Generator:
        """On-line output control (§1): the user decides to cancel the job
        in accordance with its output.  The kill order is broadcast through
        the Grid Console to every Console Agent, which terminates its
        trapped process; the job record resolves as a failure carrying the
        reason."""
        if submitted.finished.triggered:
            return False
        trace_event(self.env, "cancel", job=submitted.job.job_id,
                    reason=reason)
        submitted.report.error = f"Cancelled: {reason}"
        if submitted.session is not None:
            yield from submitted.session.kill_job(reason)
        return True

    def snapshot(self, submitted_jobs: Optional[List[SubmittedJob]] = None):
        """Point-in-time :class:`~repro.core.status.BrokerSnapshot`."""
        from .status import snapshot as build_snapshot

        return build_snapshot(self, submitted_jobs)

    def drain(self) -> Generator:
        """Wind the broker's own service machinery down (protocol hook).

        The push broker holds no long-lived services of its own (glide-in
        agents belong to the sites); the pull broker overrides this to
        stop its site agents and close the task-queue listener.
        """
        return
        yield  # pragma: no cover - makes drain uniformly a generator

    # ------------------------------------------------------------------
    # Top-level dispatch
    # ------------------------------------------------------------------
    def _execute(self, submitted: SubmittedJob,
                 factory: BehaviorFactory) -> Generator:
        """Mode-specific placement of one submission (abstract)."""
        raise NotImplementedError

    def _run(self, submitted: SubmittedJob,
             factory: BehaviorFactory) -> Generator:
        job = submitted.job
        report = submitted.report
        trace_event(self.env, "submit", job=job.job_id, owner=job.owner,
                    interactive=job.is_interactive)
        try:
            with trace_span(self.env, "submit", job=job.job_id,
                            owner=job.owner, interactive=job.is_interactive):
                yield from self._execute(submitted, factory)
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            report.error = f"{type(exc).__name__}: {exc}"
            trace_event(self.env, "failed", job=job.job_id, error=report.error)
            if not submitted.finished.triggered:
                submitted.finished.fail(exc)
                submitted.finished.defuse()

    # ------------------------------------------------------------------
    # Discovery/selection (push-family; the pull broker never calls it)
    # ------------------------------------------------------------------
    def _discover_and_select(self, submitted: SubmittedJob) -> Generator:
        """Stages 1+2; fills the report's timing columns."""
        job = submitted.job
        report = submitted.report
        match_started = self.env.now
        with trace_span(self.env, "match", job=job.job_id, path="mds"):
            adverts, discovery_time = yield from self.selector.discover()
            report.discovery_time = discovery_time
            self._note_grid_size(adverts)
            outcome = yield from self.selector.select(job, adverts)
            report.selection_time = outcome.selection_time
            candidates = yield from self._refine_candidates(
                submitted, outcome.candidates)
        trace_event(self.env, "selected", job=job.job_id,
                    n_candidates=len(candidates), discovery=discovery_time,
                    selection=report.selection_time)
        t = self.env.telemetry
        if t is not None:
            t.histogram("broker.match_latency.mds").observe(
                self.env.now - match_started)
        return candidates

    def _refine_candidates(self, submitted: SubmittedJob,
                           candidates: List) -> Generator:
        """Mode hook: re-rank/filter the selection outcome.

        The base implementation is the identity (no extra events, no RNG
        draws — the push path stays draw-for-draw stable); the data-aware
        broker overrides it with transfer-cost ranking and
        deadline/budget filtering.
        """
        return candidates
        yield  # pragma: no cover - generator form for uniform `yield from`

    def _note_grid_size(self, adverts) -> None:
        total = sum(int(a.attributes.get("TotalCPUs", 0)) for a in adverts)
        self.fairshare.total_cpus = max(total, 1)

    def _admit(self, job: JobDescription, scarce: bool) -> bool:
        return self.fairshare.admit(job.owner, scarce=scarce)

    def _charge_start(self, job: JobDescription) -> None:
        af = (af_interactive(job.performance_loss,
                             self.calibration.fairshare.af_interactive_literal)
              if job.is_interactive else af_batch())
        self.fairshare.job_started(job.owner, job.job_id, job.node_number, af)

    def _charge_finish(self, job: JobDescription) -> None:
        self.fairshare.job_finished(job.owner, job.job_id)

    def _retrieve_output(self, submitted: SubmittedJob) -> Generator:
        """Stage the output sandbox back once the job completed (§1)."""
        job = submitted.job
        if not job.output_sandbox or not submitted.report.sites:
            return
        gatekeeper = f"gk.{submitted.report.sites[0]}"
        with trace_span(self.env, "output_retrieval", job=job.job_id,
                        site=submitted.report.sites[0],
                        nbytes=job.output_sandbox):
            elapsed = yield from retrieve_output(
                self.env, self.network, self.rng, gatekeeper,
                self.broker_host, job.output_sandbox)
        submitted.report.output_retrieval_time = elapsed
        trace_event(self.env, "output-retrieved", job=job.job_id,
                    elapsed=elapsed)

    def _charge_shadow_setup(self, submitted: SubmittedJob) -> Generator:
        """Start the console shadow + wait for its port to be probed
        (part of the submission step whenever a console is attached)."""
        if submitted.session is not None:
            yield self.env.timeout(self.rng.jitter(
                "broker/shadow-setup", self.costs.shadow_setup, 0.15))

    def _finish_measurement(self, submitted: SubmittedJob) -> Generator:
        """Record first-output timing once the console reports it."""
        report = submitted.report
        if submitted.session is not None:
            first = yield submitted.session.shadow.first_output
            report.first_output_at = first
            report.response_time = first - report.submitted_at

    # -- replica staging ---------------------------------------------------
    def _data_lfns(self, job: JobDescription) -> Tuple[str, ...]:
        """The job's declared input datasets (JDL ``InputData``)."""
        raw = job.raw.get("inputdata")
        if raw is None:
            return ()
        if isinstance(raw, str):
            return (raw,)
        return tuple(str(lfn) for lfn in raw)

    def _pick_replica(self, lfn: str, candidate):
        """Which replica to fetch from.  Base brokers are data-blind and
        take the first registered copy; the data-aware broker overrides
        this with nearest-by-transfer-time selection."""
        assert self.replicas is not None
        locations = self.replicas.locations(lfn)
        return locations[0] if locations else None

    def _stage_job_data(self, submitted: SubmittedJob, candidate) -> Generator:
        """Fetch declared input datasets to the execution site.

        A no-op (zero events) unless the job names ``InputData`` *and* a
        replica catalog is wired — existing worlds pay nothing.
        """
        job = submitted.job
        lfns = self._data_lfns(job)
        if not lfns or self.replicas is None:
            return
        report = submitted.report
        started = self.env.now
        pace = self.env.timer(name=f"broker/data-stage/{job.job_id}")
        local_hits = 0
        with trace_span(self.env, "data_staging", job=job.job_id,
                        site=candidate.site, n_files=len(lfns)):
            try:
                for lfn in lfns:
                    replica = self._pick_replica(lfn, candidate)
                    if replica is None:
                        raise NoResourcesError(
                            f"{job.job_id}: no replica registered for "
                            f"{lfn!r}")
                    if replica.site == candidate.site:
                        local_hits += 1
                        continue
                    elapsed = self.network.transfer_time(
                        replica.gatekeeper, candidate.gatekeeper,
                        replica.nbytes, stream=f"replica/{lfn}")
                    yield pace.arm(elapsed)
            except BaseException:
                pace.cancel()
                raise
        report.data_staging_time = self.env.now - started
        t = self.env.telemetry
        if t is not None:
            t.histogram("broker.data.staging").observe(report.data_staging_time)
            if local_hits:
                t.counter("broker.data.local_hits").inc(local_hits)
        trace_event(self.env, "data-staged", job=job.job_id,
                    site=candidate.site, files=len(lfns), local=local_hits,
                    elapsed=report.data_staging_time)

    # -- GRAM path ---------------------------------------------------------
    def _submit_via_gram(self, submitted: SubmittedJob,
                         factory: BehaviorFactory, candidate,
                         rank: int) -> Generator:
        """Exclusive-mode submission of one subjob.  Returns True if the
        job started; False if it queued past the on-line-scheduling bound
        (and was cancelled for resubmission)."""
        job = submitted.job
        report = submitted.report
        submit_started = self.env.now
        with trace_span(self.env, "gram_submit", job=job.job_id,
                        site=candidate.site, rank=rank) as span:
            yield from self._charge_shadow_setup(submitted)
            lease = self.leases.acquire(candidate.site, job.job_id)
            gram = GramClient(self.env, self.network, self.rng,
                              self.broker_host, candidate.gatekeeper,
                              self.costs)
            try:
                yield from gram.connect()
                if job.input_sandbox:
                    yield from stage_input(
                        self.env, self.network, self.rng, self.broker_host,
                        candidate.gatekeeper, job.input_sandbox)
                else:
                    # Sandbox preparation still costs a transfer setup.
                    yield self.env.timeout(self.rng.jitter(
                        "broker/stage-setup", self.costs.input_staging, 0.15))
                yield from self._stage_job_data(submitted, candidate)
                setup = None
                if submitted.session is not None:
                    setup = submitted.session.make_setup(candidate.gatekeeper,
                                                         rank)
                ticket = yield from gram.submit(
                    f"{job.job_id}/r{rank}", job.owner, factory(rank),
                    interactive=job.is_interactive, two_phase=True,
                    priority=self.fairshare.ordering_key(job.owner),
                    setup=setup)
            except BaseException:
                self.leases.release(lease)
                yield from gram.close()
                raise
            self.leases.release(lease)

            # On-line scheduling (§3): the scheduler attempts to run each
            # interactive job immediately — if it enters a queue instead,
            # it is cancelled and resubmitted to another available resource.
            timeout = self.env.timeout(self.config.queued_resubmit_timeout)
            yield ticket.handle.started | timeout
            if not ticket.handle.started.triggered:
                tr = self.env.tracer
                if tr is not None:
                    tr.event("resubmit", job=job.job_id, site=candidate.site)
                    # The span covers the wait, not the cancel that follows.
                    tr.end(span, status="queued-timeout")
                try:
                    yield from gram.cancel(ticket.gram_id)
                except NetworkError:
                    pass
                yield from gram.close()
                return False
            yield from gram.close()

        report.sites.append(candidate.site)
        report.started_at = self.env.now
        report.submission_time = self.env.now - submit_started
        self._charge_start(job)
        if not submitted.started.triggered:
            submitted.started.succeed(self.env.now)
        self.env.process(self._watch_finish(submitted, [ticket.handle.finished]),
                         name=f"broker/watch/{job.job_id}")
        return True

    def _watch_finish(self, submitted: SubmittedJob,
                      finish_events: List[Event]) -> Generator:
        job = submitted.job
        try:
            condition = yield self.env.all_of(finish_events)
            results = [e.value for e in finish_events]
            yield from self._retrieve_output(submitted)
            if not submitted.finished.triggered:
                submitted.finished.succeed(results)
        except Exception as exc:  # noqa: BLE001 - job failure
            if not submitted.finished.triggered:
                submitted.finished.fail(exc)
                submitted.finished.defuse()
        finally:
            self._charge_finish(job)
            submitted.report.finished_at = self.env.now
            trace_event(self.env, "finished", job=job.job_id)

    # -- introspection ---------------------------------------------------
    @property
    def queued_batch_count(self) -> int:
        """Batch jobs parked in the push broker's queue (0 off-push)."""
        return 0

    @property
    def pending_task_count(self) -> int:
        """Tasks waiting in the pull broker's central queue (0 off-pull)."""
        return 0
