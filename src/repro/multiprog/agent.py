"""The glide-in job agent.

§5.2: "This multi-programming scheme takes advantage of the Condor
Glide-In mechanism, and is based on the transparent submission of job
agents for jobs submitted by the user.  The agent gains control of remote
machines independently of the local-site job manager."

The agent is submitted *through* the normal GRAM + LRMS path like any
batch job (which is why Table I's "job + agent" row is the slowest).  Once
its behavior starts on a worker node it:

1. pays the glide-in boot cost,
2. splits the node into ``batch-vm`` and ``interactive-vm`` slots,
3. opens an RPC endpoint on the node and registers with its broker,
4. serves ``agent.run_job`` dispatches until told (or deciding) to leave —
   the direct broker->agent channel that makes the shared-VM row of
   Table I fast.

Interactive jobs run at higher priority; the co-located batch job receives
``PerformanceLoss`` % of the CPU (see :mod:`repro.grid.cpu`).  When the
batch job completes and no interactive job remains, the agent leaves the
machine (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

from ..calibration import MiddlewareCosts
from ..net import Network, RpcServer
from ..sim import Environment, Event, RandomStreams, trace_event, trace_span
from ..grid.errors import NoResourcesError
from ..grid.workernode import Behavior, MachineContext, WorkerNode
from .vm import VmKind, VmSlot

AGENT_PORT = 9618  # Condor's collector port, in homage.

def _next_agent_id(node) -> str:
    """Per-node agent numbering: agent ids key RNG streams, so they must
    not depend on global interpreter state across repeated runs."""
    sequence = getattr(node, "_agent_seq", 0) + 1
    node._agent_seq = sequence
    return f"agent-{node.name}-{sequence}"


@dataclass
class AgentJobTicket:
    """Broker-visible record of a job dispatched to an agent."""

    label: str
    vm: VmKind
    started: Event
    finished: Event
    node_host: str


class AgentRuntime:
    """The agent process while it owns a worker node."""

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 node: WorkerNode, costs: MiddlewareCosts,
                 agent_id: Optional[str] = None,
                 interactive_slots: int = 1) -> None:
        if interactive_slots < 1:
            raise ValueError("interactive_slots must be >= 1")
        self.env = env
        self.network = network
        self.rng = rng
        self.node = node
        self.costs = costs
        self.agent_id = agent_id or _next_agent_id(node)
        #: Two VMs by default; §5.2's future-work knob ("a larger degree of
        #: multi-programming, creating dynamically more than two virtual
        #: machines") raises ``interactive_slots``.
        self.slots: Dict[VmKind, list] = {
            VmKind.BATCH: [VmSlot(VmKind.BATCH)],
            VmKind.INTERACTIVE: [VmSlot(VmKind.INTERACTIVE)
                                 for _ in range(interactive_slots)],
        }
        self.ready = env.event()
        self.leave = env.event()
        self.dead = env.event()
        self.server: Optional[RpcServer] = None
        self._batch_done = False
        self.jobs_dispatched = 0
        #: label -> running guest process (killed with the agent).
        self._guests: Dict[str, object] = {}

    # -- queries the broker makes locally (its own registry) ---------------
    def _free_slot(self, kind: VmKind) -> Optional[VmSlot]:
        for slot in self.slots[kind]:
            if slot.is_free:
                return slot
        return None

    @property
    def interactive_free(self) -> bool:
        return self._free_slot(VmKind.INTERACTIVE) is not None

    @property
    def batch_free(self) -> bool:
        return self._free_slot(VmKind.BATCH) is not None

    @property
    def is_alive(self) -> bool:
        return self.ready.triggered and not self.dead.triggered \
            and not self.leave.triggered

    # -- the dispatch handler ------------------------------------------------
    def run_job(self, label: str, behavior: Behavior, interactive: bool,
                performance_loss: int = 0,
                setup: Optional[Callable[[MachineContext], None]] = None,
                daemon: Optional[bool] = None) -> Generator:
        """RPC handler: place a job on the matching VM slot and start it.

        ``daemon=True`` marks a guest that runs for the rest of the
        simulation by design (a background CPU hog, a measurement
        peer); the sanitizer then exempts its whole execution chain.
        The default (``None``) inherits the dispatching process's flag,
        so a ``daemon=True`` broker submission stays daemon end-to-end.
        """
        kind = VmKind.INTERACTIVE if interactive else VmKind.BATCH
        slot = self._free_slot(kind)
        if slot is None:
            raise NoResourcesError(f"{self.agent_id}: no free {kind.value}")
        if self.leave.triggered or self.dead.triggered:
            raise NoResourcesError(f"{self.agent_id}: agent is gone")
        # Reserve the slot immediately (so the agent cannot decide to leave
        # mid-dispatch), then pay the slot preparation: sandbox dir,
        # environment, priority plumbing.
        with trace_span(self.env, "vm_acquire", job=label,
                        site=self.node.site, agent=self.agent_id,
                        vm=kind.value):
            slot.occupy(label, self.env.now)
            self.jobs_dispatched += 1
            t = self.env.telemetry
            if t is not None:
                t.counter("vm.dispatches").inc()
                t.counter(f"vm.dispatches.{kind.value}").inc()
                t.gauge(f"vm.slots_busy.{kind.value}").inc()
            yield self.env.timeout(self.rng.jitter(
                f"{self.agent_id}/slot-setup", self.costs.agent_slot_setup,
                0.12))
        ticket = AgentJobTicket(label, kind, self.env.event(),
                                self.env.event(), self.node.name)

        def job_runner() -> Generator:
            proc = self.node.execute(behavior, label, interactive=interactive,
                                     performance_loss=performance_loss,
                                     setup=setup)
            self._guests[label] = proc
            ticket.started.succeed(self.env.now)
            try:
                result = yield proc
                ticket.finished.succeed(result)
            except Exception as exc:  # noqa: BLE001 - surfaced via ticket
                ticket.finished.fail(exc)
                ticket.finished.defuse()
            finally:
                self._guests.pop(label, None)
                slot.vacate(label)
                t = self.env.telemetry
                if t is not None:
                    t.gauge(f"vm.slots_busy.{kind.value}").dec()
                if kind is VmKind.BATCH:
                    self._batch_done = True
                self._maybe_leave()

        self.env.process(job_runner(), name=f"{self.agent_id}/{label}",
                         daemon=daemon)
        return ticket

    def _maybe_leave(self) -> None:
        """§5.2: after completion of the batch job the agent leaves —
        once any interactive guest has drained too."""
        if self._batch_done and self.batch_free and self.interactive_free \
                and not self.leave.triggered:
            self.leave.succeed(self.env.now)
            trace_event(self.env, "agent-left", agent=self.agent_id,
                        site=self.node.site)

    def kill(self, cause: str = "killed") -> None:
        """The local scheduler (or a node crash) killed the agent.

        Everything under the agent goes with it — the LRMS tears down the
        whole glide-in sandbox, guests included (§5.2: "Special care has
        to be taken if the agent is killed... In this case, new agents
        will be submitted when possible").
        """
        if not self.dead.triggered:
            self.dead.succeed(cause)
        trace_event(self.env, "agent_killed", agent=self.agent_id, cause=cause,
                    guests=len(self._guests))
        if self.server is not None:
            self.server.close()
        from ..grid.errors import AgentDeadError

        for label, proc in list(self._guests.items()):
            if getattr(proc, "is_alive", False):
                try:
                    proc.interrupt(AgentDeadError(
                        f"{self.agent_id} killed: {cause}"))
                except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- best-effort kill of an already-terminating process
                    continue

    # -- the behavior submitted through GRAM/LRMS ---------------------------
    def behavior(self, on_ready: Optional[Callable[["AgentRuntime"], None]] = None,
                 ) -> Behavior:
        """Build the LRMS-submittable behavior that boots this runtime."""

        def agent_behavior(ctx: MachineContext) -> Generator:
            # Glide-in boot: unpack the transferred sandbox, start daemons.
            yield from ctx.io(self.rng.jitter(
                f"{self.agent_id}/boot", self.costs.glidein_boot, 0.10))
            self.server = RpcServer(self.network, self.node.name, AGENT_PORT,
                                    name=self.agent_id)
            self.server.register("agent.run_job", self.run_job)
            self.server.register("agent.ping", lambda: self.agent_id)
            self.ready.succeed(self.env.now)
            if on_ready is not None:
                on_ready(self)
            outcome = yield self.leave | self.dead
            if self.server is not None:
                self.server.close()
            return "left" if self.leave.triggered else f"dead:{self.dead.value}"

        return agent_behavior
