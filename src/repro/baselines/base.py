"""Common interface of interactive-channel mechanisms (Fig. 6/7 contenders).

A mechanism connects a *client* on the submission machine with a *server*
process on the execution machine and moves stdio-sized payloads both ways.
The experiment suite measures ``roundtrip`` sequences exactly as §6.2
describes: client writes, server reads and answers, client reads.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Generator, Optional, Tuple

from ..net import Network
from ..sim import Environment, RandomStreams


class Mechanism(abc.ABC):
    """An established bidirectional channel with per-op/per-byte costs."""

    #: Human-readable identifier used in experiment tables.
    name: str = "mechanism"

    def __init__(self, env: Environment, network: Network,
                 rng: RandomStreams, client_host: str, server_host: str) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.client_host = client_host
        self.server_host = server_host
        self.established = False
        self.setup_time: Optional[float] = None

    @abc.abstractmethod
    def establish(self) -> Generator:
        """Create the session; sets :attr:`setup_time` and returns it."""

    def one_way(self, nbytes: int, to_server: bool) -> Generator:
        """Move ``nbytes`` one way; returns the elapsed time.

        Cost-model mechanisms (ssh, glogin) implement this; full-stack
        mechanisms (the interposition agents) override :meth:`roundtrip`
        instead, because their two directions flow through live processes.
        """
        raise NotImplementedError(f"{self.name} has no one_way model")
        yield  # pragma: no cover - makes this a generator

    def roundtrip(self, nbytes_out: int, nbytes_back: int,
                  server_time: float = 0.0) -> Generator:
        """One §6.2 sequence: client write -> server read/answer -> client read."""
        if not self.established:
            raise RuntimeError(f"{self.name}: channel not established")
        start = self.env.now
        yield from self.one_way(nbytes_out, to_server=True)
        if server_time > 0:
            yield self.env.timeout(server_time)
        yield from self.one_way(nbytes_back, to_server=False)
        return self.env.now - start

    # -- shared cost helpers ------------------------------------------------
    def _chunked_cost(self, nbytes: int, chunk: int, per_op: float,
                      per_byte: float) -> float:
        """CPU/framing cost of moving ``nbytes`` in ``chunk``-sized pieces."""
        chunks = max(1, math.ceil(nbytes / chunk)) if nbytes > 0 else 1
        return chunks * per_op + nbytes * per_byte

    def _ends(self, to_server: bool) -> Tuple[str, str]:
        if to_server:
            return self.client_host, self.server_host
        return self.server_host, self.client_host

    def _one_way_streams(self) -> Dict[bool, Tuple[str, str]]:
        """Per direction (``to_server``), the RNG streams of a one-way
        model's CPU cost and transfer jitter, built once."""
        streams = {}
        for to_server, direction in ((True, "up"), (False, "down")):
            prefix = f"{self.name}/{direction}"
            streams[to_server] = (f"{prefix}/cpu", self.network.jitter_name(
                prefix, *self._ends(to_server)))
        return streams

    def _transfer(self, nbytes: int, to_server: bool, name: str) -> float:
        src, dst = self._ends(to_server)
        self.network.check_path(src, dst)
        return self.network.transfer_time(src, dst, nbytes, name=name)
