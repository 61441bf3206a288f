"""Local batch systems (LRMS) managing a site's worker nodes.

Each grid site runs "a local queuing system, such as PBS or Condor"
(paper §3).  The model: jobs enter a queue; a scheduling cycle runs
periodically (plus immediately on submission/completion events) and
assigns queued jobs to free nodes in policy order.  The dispatch latency —
the time between a node being available and the job's process actually
starting — is the ``local_queue_dispatch`` constant of Table I.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from ..sim import Environment, Event, Interrupt, RandomStreams, Timer
from .errors import QueueFullError
from .workernode import Behavior, MachineContext, WorkerNode


class JobState(enum.Enum):
    QUEUED = "queued"
    DISPATCHING = "dispatching"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


class SchedulingPolicy(enum.Enum):
    """Local scheduler flavor (paper §3: "such as PBS or Condor").

    * FIFO — PBS-style arrival order;
    * PRIORITY — Condor-style priority-ordered queue (lower value first);
    * PREEMPTIVE — priority ordering *and* eviction: a sufficiently better
      queued job evicts the worst running one, which restarts from the
      queue (no checkpointing — as a vanilla 2006 pool behaves, and the
      reason §5.2 stresses that killed glide-in agents must be replanted).
    """

    FIFO = "fifo"
    PRIORITY = "priority"
    PREEMPTIVE = "preemptive"




@dataclass
class BatchHandle:
    """The LRMS-side record of a submitted job."""

    local_id: str
    label: str
    owner: str
    behavior: Behavior
    interactive: bool = False
    performance_loss: int = 0
    priority: float = 0.0
    daemon: bool = False
    setup: Optional[Callable[[MachineContext], None]] = None
    state: JobState = JobState.QUEUED
    node: Optional[WorkerNode] = None
    #: Times this job was evicted by a higher-priority one (PREEMPTIVE).
    preemptions: int = 0
    #: The running simulation process (while RUNNING).
    proc: Optional[object] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Fires when the job's process begins executing on a node.
    started: Optional[Event] = None
    #: Fires with the behavior's return value (or fails) at completion.
    finished: Optional[Event] = None
    result: object = None


#: Interrupt cause marking a preemption (identity-compared).
_PREEMPTED = "lrms-preempted"
#: Seconds between the LRMS's periodic scheduling cycles.
CYCLE_INTERVAL = 2.0


class LocalBatchSystem:
    """The LRMS of one site."""

    def __init__(self, env: Environment, rng: RandomStreams, site: str,
                 nodes: List[WorkerNode], dispatch_latency: float,
                 policy: SchedulingPolicy = SchedulingPolicy.FIFO,
                 max_queue: Optional[int] = None) -> None:
        self.env = env
        self.rng = rng
        self.site = site
        self.nodes = list(nodes)
        self.dispatch_latency = dispatch_latency
        self.policy = policy
        self.max_queue = max_queue
        self.queue: List[BatchHandle] = []
        self.running: Dict[str, BatchHandle] = {}
        #: Administrative drain (steering verb ``drain_site``): while set,
        #: new submissions are rejected and queued jobs are not dispatched;
        #: running jobs finish normally.
        self.drained = False
        self._handle_counter = itertools.count(1)
        #: One re-armable cycle timer replaces the seed's per-cycle
        #: ``timeout | kick`` idiom (which allocated a timeout, a fresh
        #: kick event, and an AnyOf condition every cycle and left the
        #: losing timeout dead in the heap).  ``_wake`` simply re-arms the
        #: timer to *now*, so a submission/completion still triggers an
        #: immediate dispatch cycle.
        self._cycle_timer = Timer(env, name=f"lrms/{site}/cycle",
                                  daemon=True)  # service root
        self._kicked = False
        self._proc = env.process(self._scheduler_loop(), name=f"lrms/{site}",
                                 daemon=True)  # service root: LRMS cycles forever

    # -- published state (feeds the MDS advert) ----------------------------
    def free_nodes(self) -> List[WorkerNode]:
        return [n for n in self.nodes if n.is_free]

    @property
    def free_count(self) -> int:
        return len(self.free_nodes())

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def total_nodes(self) -> int:
        return len(self.nodes)

    def has_capacity(self) -> bool:
        """Free node now, or room in the queue (paper §5.2: "space in the
        queues managed by the local scheduler")."""
        if self.drained:
            return False
        if self.free_count > 0:
            return True
        return self.max_queue is None or len(self.queue) < self.max_queue

    def set_drained(self, drained: bool) -> None:
        """Flip the administrative drain; undraining kicks a dispatch
        cycle so jobs parked in the queue start immediately."""
        self.drained = bool(drained)
        self._publish_telemetry()
        if not self.drained:
            self._wake()

    # -- submission ----------------------------------------------------------
    def submit(self, label: str, owner: str, behavior: Behavior,
               interactive: bool = False, performance_loss: int = 0,
               priority: float = 0.0, daemon: bool = False,
               setup: Optional[Callable[[MachineContext], None]] = None) -> BatchHandle:
        """Enqueue a job; raises :class:`QueueFullError` when over capacity."""
        if self.drained:
            raise QueueFullError(f"{self.site}: site drained")
        if self.max_queue is not None and len(self.queue) >= self.max_queue \
                and self.free_count == 0:
            raise QueueFullError(f"{self.site}: queue full")
        handle = BatchHandle(
            local_id=f"{self.site}.{next(self._handle_counter)}",
            label=label, owner=owner, behavior=behavior,
            interactive=interactive, performance_loss=performance_loss,
            priority=priority, daemon=daemon, setup=setup,
            submitted_at=self.env.now,
            started=self.env.event(), finished=self.env.event(),
        )
        self.queue.append(handle)
        self._publish_telemetry()
        self._wake()
        return handle

    def cancel(self, handle: BatchHandle) -> bool:
        """Remove a queued job; running jobs cannot be cancelled here."""
        if handle in self.queue:
            self.queue.remove(handle)
            handle.state = JobState.CANCELLED
            if handle.finished is not None and not handle.finished.triggered:
                handle.finished.fail(QueueFullError("cancelled"))
                handle.finished.defuse()
            return True
        return False

    # -- internals ---------------------------------------------------------
    def _publish_telemetry(self) -> None:
        """Refresh the per-site node gauges (no-op when uninstalled)."""
        t = self.env.telemetry
        if t is not None:
            t.gauge(f"lrms.running.{self.site}").set(len(self.running))
            t.gauge(f"lrms.idle.{self.site}").set(self.free_count)
            t.gauge(f"lrms.pending.{self.site}").set(len(self.queue))

    def _wake(self) -> None:
        # Pull the next cycle forward to *now*.  The flag covers kicks that
        # arrive before the scheduler process has started (or while it is
        # between wakeup and re-arm), mirroring the pre-triggered-kick
        # behaviour of the seed implementation.
        self._kicked = True
        self._cycle_timer.restart(0.0)

    def _scheduler_loop(self) -> Generator:
        while True:
            if not self._kicked:
                yield self._cycle_timer.restart(CYCLE_INTERVAL)
            self._kicked = False
            self._dispatch_cycle()

    def _order_queue(self) -> List[BatchHandle]:
        if self.policy in (SchedulingPolicy.PRIORITY,
                           SchedulingPolicy.PREEMPTIVE):
            # Lower priority value is better (matches the broker's
            # fair-share convention); FIFO among equals.
            return sorted(self.queue, key=lambda h: h.priority)
        return list(self.queue)

    def _dispatch_cycle(self) -> None:
        # An idle tick (empty queue) is the common one: decide it before
        # scanning the nodes.
        if self.drained or not self.queue:
            return
        free = self.free_nodes()
        if not free and self.policy is SchedulingPolicy.PREEMPTIVE:
            self._try_preempt()
            free = self.free_nodes()
        if not free:
            return
        for handle in self._order_queue():
            if not free:
                break
            node = free.pop(0)
            self.queue.remove(handle)
            handle.state = JobState.DISPATCHING
            node.acquire(handle.local_id)
            handle.node = node
            self.env.process(self._start_job(handle, node),
                             name=f"dispatch/{handle.local_id}")

    def _try_preempt(self) -> None:
        """Evict the worst running job if a queued one clearly beats it."""
        queued = self._order_queue()
        running = [h for h in self.running.values()
                   if h.proc is not None and not h.daemon]
        if not queued or not running:
            return
        best_queued = queued[0]
        victim = max(running, key=lambda h: h.priority)
        if best_queued.priority < victim.priority:
            victim.preemptions += 1
            try:
                victim.proc.interrupt(_PREEMPTED)
            except Exception:  # noqa: BLE001 - already finishing
                return

    def _start_job(self, handle: BatchHandle, node: WorkerNode) -> Generator:
        # Staging the executable to the node + LRMS prologue.
        latency = self.rng.jitter(f"lrms/{self.site}/dispatch",
                                  self.dispatch_latency, 0.12)
        yield self.env.timeout(latency)
        handle.state = JobState.RUNNING
        handle.started_at = self.env.now
        self.running[handle.local_id] = handle
        self._publish_telemetry()
        if handle.started is not None and not handle.started.triggered:
            handle.started.succeed(node.name)
        proc = node.execute(handle.behavior, handle.label,
                            interactive=handle.interactive,
                            performance_loss=handle.performance_loss,
                            daemon=handle.daemon,
                            setup=handle.setup)
        handle.proc = proc
        try:
            result = yield proc
            handle.state = JobState.DONE
            handle.result = result
            if handle.finished is not None and not handle.finished.triggered:
                handle.finished.succeed(result)
        except Interrupt as interrupt:
            if interrupt.cause is _PREEMPTED:
                # Evicted by a better job: back to the queue, restart from
                # scratch on the next free node.
                handle.state = JobState.QUEUED
                handle.node = None
                handle.proc = None
                self.running.pop(handle.local_id, None)
                node.release(handle.local_id)
                self.queue.append(handle)
                self._wake()
                return
            handle.state = JobState.FAILED
            if handle.finished is not None and not handle.finished.triggered:
                handle.finished.fail(interrupt)
                handle.finished.defuse()
        except Exception as exc:  # noqa: BLE001 - job failure is data here
            handle.state = JobState.FAILED
            if handle.finished is not None and not handle.finished.triggered:
                handle.finished.fail(exc)
                handle.finished.defuse()
        finally:
            if handle.state is not JobState.QUEUED:
                handle.finished_at = self.env.now
                handle.proc = None
                self.running.pop(handle.local_id, None)
                if node.owner == handle.local_id:
                    node.release(handle.local_id)
                self._publish_telemetry()
                self._wake()
