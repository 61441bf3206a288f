"""Broker-side agent registry.

§6.1: "the first two steps [discovery/selection] are not required for
interactive jobs that want to run on an Interactive Virtual Machine because
the information about existing VMs is kept locally by CrossBroker" — this
registry *is* that local information, fed by the agents' registration
callbacks, so looking up a free interactive VM costs no network round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim import Environment
from .agent import AgentRuntime


@dataclass
class AgentRecord:
    runtime: AgentRuntime
    site: str
    registered_at: float


class AgentRegistry:
    """Tracks every live glide-in agent the broker has planted."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._records: Dict[str, AgentRecord] = {}
        #: Agents that died (for resubmission bookkeeping and tests).
        self.deaths: List[str] = []

    def register(self, runtime: AgentRuntime, site: str) -> AgentRecord:
        record = AgentRecord(runtime, site, self.env.now)
        self._records[runtime.agent_id] = record
        t = self.env.telemetry
        if t is not None:
            t.gauge("vm.agents_live").set(len(self._records))
        self.env.process(self._watch(runtime), name=f"watch/{runtime.agent_id}")
        return record

    def _watch(self, runtime: AgentRuntime):
        yield runtime.leave | runtime.dead
        if runtime.dead.triggered:
            self.deaths.append(runtime.agent_id)
        self._records.pop(runtime.agent_id, None)
        t = self.env.telemetry
        if t is not None:
            t.gauge("vm.agents_live").set(len(self._records))

    # -- lookups (local, zero network cost by design) -----------------------
    def live_agents(self) -> List[AgentRecord]:
        return [r for r in self._records.values() if r.runtime.is_alive]

    def free_interactive(self, site: Optional[str] = None) -> List[AgentRecord]:
        return [r for r in self.live_agents()
                if r.runtime.interactive_free
                and (site is None or r.site == site)]

    def free_batch(self, site: Optional[str] = None) -> List[AgentRecord]:
        return [r for r in self.live_agents()
                if r.runtime.batch_free and (site is None or r.site == site)]

    def __len__(self) -> int:
        return len(self._records)
