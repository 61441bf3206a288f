"""ssh baseline.

§6.2: "we established a regular ssh session between the submission machine
and the execution machine... It is worth mentioning that this mechanism is
commonly used in local area networks but is not available, in general, in
a grid due to restrictions imposed on remote machines."

Cost model: session key exchange at setup; per operation, the payload is
moved through ssh's ~4 KB channel windows, each window paying a
syscall+crypto cost, plus a per-byte encryption cost.  The small window is
what the agents' 64 KB buffers beat at 10 KB payloads (Fig. 6).
"""

from __future__ import annotations

from typing import Generator

from ..calibration import SshCosts
from ..net import Network
from ..sim import Environment, RandomStreams
from .base import Mechanism


class SshMechanism(Mechanism):
    name = "ssh"

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 client_host: str, server_host: str, costs: SshCosts) -> None:
        super().__init__(env, network, rng, client_host, server_host)
        self.costs = costs
        self._streams = self._one_way_streams()

    def establish(self) -> Generator:
        start = self.env.now
        rtt = 2.0 * self.network.base_transfer_time(self.client_host,
                                                    self.server_host, 512)
        # Version exchange, KEX (2 round trips), auth (1 round trip).
        cost = self.rng.jitter("ssh/setup", self.costs.session_setup, 0.10) \
            + 3.0 * rtt
        yield self.env.timeout(cost)
        self.established = True
        self.setup_time = self.env.now - start
        return self.setup_time

    def one_way(self, nbytes: int, to_server: bool) -> Generator:
        start = self.env.now
        cpu_stream, net_stream = self._streams[to_server]
        cost = self._chunked_cost(nbytes, self.costs.chunk,
                                  self.costs.per_op, self.costs.per_byte)
        cost = self.rng.jitter(cpu_stream, cost, 0.12)
        transfer = self._transfer(nbytes, to_server, net_stream)
        yield self.env.timeout(cost + transfer)
        return self.env.now - start
