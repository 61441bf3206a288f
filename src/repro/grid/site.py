"""A grid site: gatekeeper + worker nodes + LRMS + information publishing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..calibration import Calibration
from ..net import Network
from ..sim import Environment, RandomStreams
from .batchsystem import LocalBatchSystem, SchedulingPolicy
from .gram import Gatekeeper
from .workernode import NodeSpec, WorkerNode

#: Cluster-internal LAN parameters (switched 100 Mbps inside the site).
LAN_LATENCY = 0.0002
LAN_BANDWIDTH = 100e6 / 8
LAN_JITTER = 0.03
#: What every site publishes for its worker nodes.
NODE_SPEC = NodeSpec()


@dataclass
class SiteConfig:
    """Static configuration of one site."""

    name: str
    n_nodes: int = 4
    policy: SchedulingPolicy = SchedulingPolicy.FIFO
    max_queue: Optional[int] = None
    #: Free-form extra GLUE attributes (storage, VO tags, ...).
    extra_attributes: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.extra_attributes is None:
            self.extra_attributes = {}


class Site:
    """One grid site wired into the network fabric.

    Creates the gatekeeper host ``gk.<name>`` and worker-node hosts
    ``wn<i>.<name>`` with LAN links to the gatekeeper.  The caller (the
    testbed builder) connects ``gk.<name>`` to the wide-area fabric.
    """

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 config: SiteConfig, calibration: Calibration) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.config = config
        self.calibration = calibration
        self.costs = calibration.middleware
        self.name = config.name
        self.gatekeeper_host = f"gk.{config.name}"

        network.add_host(self.gatekeeper_host)
        self.nodes: List[WorkerNode] = []
        for i in range(config.n_nodes):
            host = f"wn{i}.{config.name}"
            network.add_host(host)
            network.add_link(self.gatekeeper_host, host,
                             LAN_LATENCY, LAN_BANDWIDTH, LAN_JITTER)
            self.nodes.append(WorkerNode(env, rng, host, config.name,
                                         calibration.scheduler))

        self.lrms = LocalBatchSystem(
            env, rng, config.name, self.nodes,
            dispatch_latency=self.costs.local_queue_dispatch,
            policy=config.policy, max_queue=config.max_queue)
        self.gatekeeper = Gatekeeper(env, network, rng, config.name,
                                     self.gatekeeper_host, self.lrms,
                                     self.costs)
        # The selection refresh (§6.1) reads the authoritative advert
        # straight from the site, not the possibly-stale MDS copy.
        self.gatekeeper.info_fn = self.advert

    # -- information publishing -------------------------------------------
    def advert(self) -> Dict[str, Any]:
        """The GLUE-ish attribute set pushed to the MDS (matchmaking's
        "other." context)."""
        attributes: Dict[str, Any] = {
            "SiteName": self.name,
            "GatekeeperHost": self.gatekeeper_host,
            "TotalCPUs": self.lrms.total_nodes,
            "FreeCPUs": 0 if self.lrms.drained else self.lrms.free_count,
            "QueueLength": self.lrms.queue_length,
            "OpSys": NODE_SPEC.op_sys,
            "Arch": NODE_SPEC.arch,
            "MemoryMB": NODE_SPEC.memory_mb,
            "CpuMHz": NODE_SPEC.cpu_mhz,
            "LRMSPolicy": self.config.policy.value,
            "MaxQueuedJobs": (self.config.max_queue
                              if self.config.max_queue is not None
                              else 999999),
        }
        if self.lrms.drained:
            # Only present while drained, so undisturbed adverts stay
            # byte-for-byte what they always were.
            attributes["Drained"] = True
        attributes.update(self.config.extra_attributes or {})
        return attributes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Site {self.name}: {self.lrms.free_count}/"
                f"{self.lrms.total_nodes} free, queue {self.lrms.queue_length}>")
