"""Connection-oriented messaging on top of the routed network.

A :class:`Listener` bound to a host/port accepts :class:`Connection`
handshakes; each established connection is a pair of :class:`ConnectionEnd`
objects with in-order message delivery and link-failure semantics.  This is
the transport under the Console Agent <-> Console Shadow channel, the
broker's agent RPC, and the baselines.
"""

from __future__ import annotations

from typing import Any, Generator, NamedTuple, Optional, Tuple

from ..sim import Environment, Store
from .errors import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    PortInUseError,
)
from .topology import DYNAMIC_PORT_BASE, Host, Network


class Datagram(NamedTuple):
    """A message in flight (a named tuple: one is built per message)."""

    payload: Any
    nbytes: int
    sent_at: float


class _CloseMarker:
    """Inbox sentinel waking blocked receivers when the peer closes."""


_PEER_CLOSED = _CloseMarker()


class PortAllocator:
    """Per-host dynamic port allocation with optional user-pinned ports.

    The paper lets a user pin the shadow port (for firewall holes) via a JDL
    attribute; ``allocate(pinned=...)`` models that.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        # Probing from DYNAMIC_PORT_BASE would find this port first.
        self._next = host.low_port

    def allocate(self, pinned: Optional[int] = None) -> int:
        if pinned is not None:
            if pinned in self.host.listeners:
                raise PortInUseError(f"{self.host.name}:{pinned} already bound")
            return pinned
        while self._next in self.host.listeners:
            self._next += 1
        port = self._next
        self._next += 1
        return port


class Listener:
    """A passive endpoint waiting for connections on host:port."""

    def __init__(self, network: Network, host: Host, port: int) -> None:
        if port in host.listeners:
            raise PortInUseError(f"{host.name}:{port} already bound")
        self.network = network
        self.host = host
        self.port = port
        self._backlog: Store = Store(network.env)
        self.closed = False
        host.listeners[port] = self
        if port == host.low_port:
            while port in host.listeners:
                port += 1
            host.low_port = port

    def accept(self) -> Generator:
        """Wait for the next incoming connection; returns a ConnectionEnd."""
        end = yield self._backlog.get()
        return end

    def close(self) -> None:
        self.closed = True
        self.host.listeners.pop(self.port, None)
        if DYNAMIC_PORT_BASE <= self.port < self.host.low_port:
            self.host.low_port = self.port

    def _enqueue(self, server_end: "ConnectionEnd") -> None:
        self._backlog.put(server_end)


class ConnectionEnd:
    """One side of an established connection."""

    def __init__(self, network: Network, local: str, remote: str,
                 flow_id: Tuple[str, str, int], label: str) -> None:
        self.network = network
        self.env: Environment = network.env
        self.local = local
        self.remote = remote
        self.flow_id = flow_id
        self.label = label
        self._jitter_name = network.jitter_name(f"conn/{label}", local, remote)
        self.inbox: Store = Store(network.env)
        self.peer: Optional["ConnectionEnd"] = None
        self.closed = False
        #: Total payload bytes moved in each direction, for metrics.
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- data plane ------------------------------------------------------
    def send(self, payload: Any, nbytes: int = 0) -> Generator:
        """Transfer ``payload`` to the peer; completes at delivery time.

        Raises :class:`~repro.net.errors.LinkDownError` if the path is
        broken at send time (fast mode surfaces this to the caller;
        reliable mode catches it and spills to disk).
        """
        if self.closed or self.peer is None or self.peer.closed:
            raise ConnectionClosedError(f"{self.label}: connection closed")
        self.network.check_path(self.local, self.remote)
        delay = self.network.transfer_time(self.local, self.remote, nbytes,
                                           name=self._jitter_name)
        delay = self.network.ordered_arrival(self.flow_id, delay)
        t = self.env.telemetry
        if t is not None:
            t.gauge("net.in_flight_bytes").inc(nbytes)
        try:
            yield self.env.timeout(delay)
        finally:
            if t is not None:
                t.gauge("net.in_flight_bytes").dec(nbytes)
        if self.closed or self.peer is None or self.peer.closed:
            raise ConnectionClosedError(f"{self.label}: peer closed mid-flight")
        # A failure window that opened during flight kills the delivery.
        self.network.check_path(self.local, self.remote)
        self.bytes_sent += nbytes
        self.peer.bytes_received += nbytes
        self.peer.inbox.put(Datagram(payload, nbytes, self.env.now))

    def recv(self) -> Generator:
        """Wait for the next datagram; returns its payload.

        Raises :class:`ConnectionClosedError` if the peer closes while we
        are blocked (the FIN sentinel wakes pending receivers).
        """
        datagram = yield from self.recv_datagram()
        return datagram.payload

    def recv_datagram(self) -> Generator:
        if self.closed:
            raise ConnectionClosedError(f"{self.label}: connection closed")
        datagram = yield self.inbox.get()
        if datagram is _PEER_CLOSED:
            self._mark_closed()
            raise ConnectionClosedError(f"{self.label}: peer closed")
        return datagram

    @property
    def pending(self) -> int:
        """Datagrams delivered but not yet read."""
        return len(self.inbox.items)

    def close(self) -> None:
        if self.closed:
            return
        # Wake receivers blocked on either side (FIN semantics): the peer's
        # and our own pending recv() must both observe the close.  Delivery
        # of the marker is immediate; the paper's evaluation never measures
        # teardown latency.
        if self.peer is not None and not self.peer.closed:
            self.peer.inbox.put(_PEER_CLOSED)
        self.inbox.put(_PEER_CLOSED)
        self._mark_closed()

    def _mark_closed(self) -> None:
        """The one way an end becomes closed (``close()``, or reading the
        peer's FIN).  Once *both* ends are, the ``peer`` links are dropped:
        they are the only reference cycle a connection makes, so the pair
        is freed by reference count instead of waiting for a collector
        pass (ARCHITECTURE.md, "Memory lifetime").  Every guard above reads
        ``self.closed`` first, so an unlinked end answers as a closed one.
        """
        self.closed = True
        peer = self.peer
        if peer is not None and peer.closed:
            self.peer = peer.peer = None


def connect(network: Network, src: str, dst: str, port: int,
            label: Optional[str] = None) -> Generator:
    """Establish a connection from ``src`` to a listener at ``dst:port``.

    Performs one round trip (SYN / accept) and returns the client-side
    :class:`ConnectionEnd`.
    """
    listener = network.hosts[dst].listeners.get(port)
    if listener is None or not isinstance(listener, Listener) or listener.closed:
        raise ConnectionRefusedError_(f"{dst}:{port} has no listener")
    network.check_path(src, dst)
    name = label or f"{src}->{dst}:{port}"
    rtt = (network.transfer_time(src, dst, 64, stream=f"syn/{name}")
           + network.transfer_time(dst, src, 64, stream=f"synack/{name}"))
    yield network.env.timeout(rtt)
    network.check_path(src, dst)

    client = ConnectionEnd(network, src, dst, (src, dst, port), name)
    server = ConnectionEnd(network, dst, src, (dst, src, port), name + "/srv")
    client.peer = server
    server.peer = client
    listener._enqueue(server)
    return client
