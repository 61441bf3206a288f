"""Per-site pull agents: the inverted submission flow's worker half.

In the AliEn production environment (PAPERS.md, cs/0306068) every site
runs a lightweight agent that *asks the central task queue for work*
whenever it has free capacity, instead of a central broker pushing jobs
onto sites from a possibly stale index.  This module is that agent: a
daemon loop on the site's gatekeeper that long-polls the broker's queue
port, advertising the site's *current* (authoritative) attributes with
each pull, and claims at most one task per round trip.

The agent is deliberately grid-layer code: it knows nothing about broker
internals, only the wire protocol (``queue.pull`` returning a claimed
job id or ``None``).  The :class:`~repro.core.pull.PullBroker` side
matches the advertised attributes against its queue and performs the
actual GRAM submission once a claim lands.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..net import Network, NetworkError, RpcClient, RpcError
from ..sim import Environment, Event, RandomStreams
from .site import Site

#: Central task-queue service port on the broker host (AGENT_PORT + 1).
PULL_PORT = 9619
#: Pause between empty polls (jittered ±10% per agent so a fleet of
#: agents never phase-locks on the queue port).
HEARTBEAT = 4.0


class SiteAgent:
    """Long-polling pull agent for one site.

    Runs as a daemon process rooted at the site's gatekeeper: the loop is
    a service that lives as long as the site unless :meth:`stop` is
    called (the pull broker's ``drain()`` does exactly that).
    """

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 site: Site, broker_host: str, port: int = PULL_PORT) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.site = site
        self.broker_host = broker_host
        self.port = port
        self.pulls = 0
        self.claims = 0
        self._stop: Event = env.event()
        #: Fires once the loop has wound down (after the RPC channel is
        #: closed) — ``drain()`` waits on this.
        self.stopped: Event = env.event()
        self._proc = env.process(self._run(),
                                 name=f"site-agent/{site.name}", daemon=True)

    @property
    def running(self) -> bool:
        return not self.stopped.triggered

    def stop(self) -> None:
        """Ask the loop to exit after the in-flight poll (idempotent)."""
        if not self._stop.triggered:
            self._stop.succeed()

    # -- internals --------------------------------------------------------
    def _run(self) -> Generator:
        # No try/finally with yields here: as a daemon loop this generator
        # may be closed at environment teardown (GeneratorExit), where
        # further yields are illegal.  Orderly-stop cleanup runs inline
        # after the loop instead.
        pause = self.env.timer(name=f"site-agent/{self.site.name}/pause")
        rpc: Optional[RpcClient] = None
        while not self._stop.triggered:
            if rpc is None or not rpc.connected:
                rpc = RpcClient(self.network, self.site.gatekeeper_host,
                                self.broker_host, self.port,
                                label=f"pull/{self.site.name}")
                try:
                    yield from rpc.connect()
                except NetworkError:
                    # Broker unreachable (outage, not up yet): back off
                    # a heartbeat and retry.
                    rpc = None
                    yield (pause.arm(self._pause_delay()) | self._stop)
                    continue
            try:
                claimed = yield from rpc.call(
                    "queue.pull", self.site.name, self.site.advert(),
                    nbytes=1024)
            except (RpcError, NetworkError):
                # Channel died mid-poll; reconnect next iteration.
                rpc = None
                yield (pause.arm(self._pause_delay()) | self._stop)
                continue
            self.pulls += 1
            if claimed is not None:
                # Got work: poll again immediately — capacity may admit
                # more than one task.
                self.claims += 1
                continue
            yield (pause.arm(self._pause_delay()) | self._stop)
        pause.cancel()
        if rpc is not None and rpc.connected:
            yield from rpc.close()
        if not self.stopped.triggered:
            self.stopped.succeed()

    def _pause_delay(self) -> float:
        return self.rng.jitter(f"site-agent/{self.site.name}/hb",
                               HEARTBEAT, 0.1)


__all__ = ["PULL_PORT", "SiteAgent"]
