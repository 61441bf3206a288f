"""Glogin baseline.

§2: "Glogin provides an interactive shell while relying on Globus
security.  With Glogin, the user must first discover and select a remote
site and manually establish the interactive shell to that site.
Furthermore, some of its functionality requires privilege permissions on
the remote machines."

Two roles in the evaluation:

* Table I — submission time: no broker discovery/selection (hand-made by
  the user), then GSI + gatekeeper traversal + glogin channel setup;
* Fig. 6/7 — channel mechanism: Globus-IO framed relay with a small chunk
  size and a relatively high per-byte cost, which is why it "does not
  perform very well in the campus grid or for large sized data transfers
  (10K bytes) in the wide area grid".
"""

from __future__ import annotations

from typing import Generator

from ..calibration import GloginCosts
from ..net import Credential, Network, handshake
from ..sim import Environment, RandomStreams
from .base import Mechanism


class GloginMechanism(Mechanism):
    name = "glogin"

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 client_host: str, server_host: str, costs: GloginCosts,
                 wan: bool = False) -> None:
        super().__init__(env, network, rng, client_host, server_host)
        self.costs = costs
        self.wan = wan
        self._streams = self._one_way_streams()

    def establish(self) -> Generator:
        """Full glogin startup: GSI + GRAM traversal + channel bootstrap.

        This *is* the Table I "submission" for Glogin (minus the job's own
        first write, which the caller adds via a roundtrip).
        """
        start = self.env.now
        rtt = 2.0 * self.network.base_transfer_time(self.client_host,
                                                    self.server_host, 512)
        client = Credential("/DC=org/DC=crossgrid/CN=user")
        server = Credential(f"/DC=org/DC=crossgrid/CN={self.server_host}")
        yield from handshake(self.env, self.rng, client, server,
                             self.costs.gsi_handshake, rtt, stream="glogin/gsi")
        gram = self.rng.jitter("glogin/gram", self.costs.gram_overhead, 0.10)
        setup = self.rng.jitter("glogin/channel", self.costs.channel_setup, 0.12)
        if self.wan:
            setup += self.rng.jitter("glogin/wan-penalty",
                                     self.costs.wan_channel_penalty, 0.15)
        # Channel bootstrap chatter: each control message pays a round trip.
        chatter = self.costs.control_messages * rtt
        yield self.env.timeout(gram + setup + chatter + 2.0 * rtt)
        self.established = True
        self.setup_time = self.env.now - start
        return self.setup_time

    def one_way(self, nbytes: int, to_server: bool) -> Generator:
        start = self.env.now
        cpu_stream, net_stream = self._streams[to_server]
        cost = self._chunked_cost(nbytes, self.costs.chunk,
                                  self.costs.per_op, self.costs.per_byte)
        cost = self.rng.jitter(cpu_stream, cost, 0.15)
        transfer = self._transfer(nbytes, to_server, net_stream)
        yield self.env.timeout(cost + transfer)
        return self.env.now - start
