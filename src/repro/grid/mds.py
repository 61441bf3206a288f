"""MDS-like information system.

Paper §3: CrossBroker "obtains information on the status of each site
through an information system built using Globus MDS", and §6.1 notes the
index lives in Germany while the broker is in Spain, making a query cost
~0.5 s.  Sites *push* their adverts on a period, so what the broker reads
can be stale — which is exactly why resource selection performs a second,
per-site refresh phase (`mds.py` stores timestamps so that staleness is
observable by tests and the selection logic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from ..net import Network, NetworkError, RpcClient, RpcServer
from ..sim import Environment, RandomStreams

MDS_PORT = 2135


@dataclass
class SiteAdvert:
    """One site's published GLUE-ish attribute set."""

    site: str
    gatekeeper: str
    attributes: Dict[str, Any]
    published_at: float

    def age(self, now: float) -> float:
        return now - self.published_at


class InformationIndex:
    """The central MDS index (GIIS)."""

    def __init__(self, env: Environment, network: Network, host: str) -> None:
        self.env = env
        self.network = network
        self.host = host
        self._adverts: Dict[str, SiteAdvert] = {}
        self.server = RpcServer(network, host, MDS_PORT, name=f"mds@{host}")
        self.server.register("mds.register", self._handle_register)
        self.server.register("mds.query", self._handle_query)

    def _handle_register(self, site: str, gatekeeper: str,
                         attributes: Dict[str, Any]) -> float:
        self._adverts[site] = SiteAdvert(site, gatekeeper, dict(attributes),
                                         self.env.now)
        return self.env.now

    def _handle_query(self) -> Generator:
        # Directory search latency inside the index.
        yield self.env.timeout(0.02 + 0.001 * len(self._adverts))
        return list(self._adverts.values())

    @property
    def site_count(self) -> int:
        return len(self._adverts)


class MdsPublisher:
    """Per-site process pushing the advert to the index on a period."""

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 site: str, gatekeeper: str, src_host: str, index_host: str,
                 advert_fn, period: float = 30.0) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.site = site
        self.gatekeeper = gatekeeper
        self.src_host = src_host
        self.index_host = index_host
        self.advert_fn = advert_fn
        self.period = period
        #: Re-armed in place every refresh instead of allocating a fresh
        #: Timeout per period (advert-freshness churn scales with sites).
        # Service roots: the publisher loop and its period timer live
        # for the whole simulation (their helpers inherit daemon).
        self._period_timer = env.timer(name=f"mds-push/{site}/period",
                                       daemon=True)
        self._proc = env.process(self._loop(), name=f"mds-push/{site}",
                                 daemon=True)

    def _loop(self) -> Generator:
        rpc = RpcClient(self.network, self.src_host, self.index_host, MDS_PORT,
                        label=f"mds-push/{self.site}")
        connected = False
        while True:
            try:
                if not connected:
                    yield from rpc.connect()
                    connected = True
                yield from rpc.call("mds.register", self.site, self.gatekeeper,
                                    self.advert_fn(), nbytes=1024)
            except NetworkError:
                connected = False  # index unreachable; retry next period
            jittered = self.rng.jitter(f"mds-push/{self.site}", self.period, 0.05)
            yield self._period_timer.arm(jittered)


def query_index(env: Environment, network: Network, rng: RandomStreams,
                src_host: str, index_host: str,
                stream: str = "mds-query") -> Generator:
    """One-shot MDS query from ``src_host`` (the broker's discovery step)."""
    rpc = RpcClient(network, src_host, index_host, MDS_PORT, label=stream)
    yield from rpc.connect()
    try:
        adverts: List[SiteAdvert] = yield from rpc.call("mds.query", nbytes=256)
    finally:
        yield from rpc.close()
    return adverts
