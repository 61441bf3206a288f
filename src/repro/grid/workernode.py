"""Worker nodes and the machine context handed to running jobs.

A *behavior* is how this substrate represents an executable: a generator
function ``behavior(ctx)`` that alternates ``yield from ctx.cpu(seconds)``
and ``yield from ctx.io(seconds)`` phases and may talk to its stdio streams
(wired up by the streaming layer).  The Fig. 8 loop application, the
Fig. 6/7 ping-pong server, and every workload generator produce behaviors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from ..calibration import SchedulerProfile
from ..sim import Environment, Process, RandomStreams
from .cpu import Tenant, WorkerCpu
from .errors import GridError

#: behavior(ctx) -> generator
Behavior = Callable[["MachineContext"], Generator]


@dataclass(frozen=True)
class NodeSpec:
    """Published hardware/OS attributes of a worker node (GLUE-ish)."""

    op_sys: str = "Linux"
    arch: str = "i686"
    memory_mb: int = 1024
    cpu_mhz: int = 2400


class MachineContext:
    """Execution context a behavior runs in: clock, CPU, I/O, stdio."""

    def __init__(self, env: Environment, node: "WorkerNode", tenant: Tenant,
                 rng: RandomStreams, label: str) -> None:
        self.env = env
        self.node = node
        self.tenant = tenant
        self.rng = rng
        self.label = label
        #: Set by the streaming layer: the job's Console Agent binding.
        self.stdio: Optional[Any] = None
        #: Free-form mailbox for workload coordination (e.g. MPI rank).
        self.params: Dict[str, Any] = {}
        #: The simulation process running this behavior; set by
        #: :meth:`WorkerNode.execute` right after spawn (None until then).
        #: Console kill watchers use it to terminate the job.
        self.process: Optional[Any] = None

    @property
    def now(self) -> float:
        return self.env.now

    def cpu(self, seconds: float) -> Generator:
        """Consume ``seconds`` of CPU work under the node's sharing policy."""
        elapsed = yield from self.node.cpu.run(
            self.tenant, seconds, stream=f"cpu/{self.label}")
        return elapsed

    def io(self, seconds: float) -> Generator:
        """Block on a device/network wait, plus any CPU-contention delay."""
        delay = self.node.cpu.io_delay(self.tenant, stream=f"iodelay/{self.label}")
        yield self.env.timeout(seconds + delay)
        return seconds + delay

    def sleep(self, seconds: float) -> Generator:
        yield self.env.timeout(seconds)


class WorkerNode:
    """One machine of a site's cluster."""

    def __init__(self, env: Environment, rng: RandomStreams, name: str,
                 site: str, scheduler_profile: SchedulerProfile) -> None:
        self.env = env
        self.rng = rng
        self.name = name
        self.site = site
        self.cpu = WorkerCpu(env, rng, scheduler_profile, name=f"{name}/cpu")
        #: Who controls the node: None (free), a job id, or an agent id.
        self.owner: Optional[str] = None
        self._executions: Dict[str, Process] = {}
        # Node-local so execution ids (which key RNG streams) do not
        # depend on global interpreter state across repeated runs.
        self._exec_counter = itertools.count(1)

    # -- occupancy ---------------------------------------------------------
    @property
    def is_free(self) -> bool:
        return self.owner is None

    def acquire(self, owner: str) -> None:
        if self.owner is not None:
            raise GridError(f"{self.name} is already owned by {self.owner}")
        self.owner = owner

    def release(self, owner: str) -> None:
        if self.owner != owner:
            raise GridError(f"{self.name}: release by non-owner {owner!r} "
                            f"(owner is {self.owner!r})")
        self.owner = None

    # -- execution -----------------------------------------------------------
    def execute(self, behavior: Behavior, label: str, interactive: bool,
                performance_loss: int = 0, daemon: bool = False,
                setup: Optional[Callable[[MachineContext], None]] = None) -> Process:
        """Run a behavior on this node as a new tenant process.

        ``setup`` (if given) is called with the context before the behavior
        starts — the streaming layer uses it to plug in the Console Agent.
        ``daemon`` marks CPU-invisible services (the glide-in agent).
        The returned process event fires with the behavior's return value.
        """
        exec_id = f"{self.name}/{label}#{next(self._exec_counter)}"
        tenant = self.cpu.attach(exec_id, interactive, performance_loss, daemon)
        ctx = MachineContext(self.env, self, tenant, self.rng, exec_id)
        if setup is not None:
            setup(ctx)

        def runner() -> Generator:
            try:
                result = yield from behavior(ctx)
                return result
            finally:
                self.cpu.detach(exec_id)
                self._executions.pop(exec_id, None)

        proc = self.env.process(runner(), name=exec_id)
        ctx.process = proc
        self._executions[exec_id] = proc
        return proc

    @property
    def running(self) -> int:
        return len(self._executions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WorkerNode {self.name} owner={self.owner!r}>"
