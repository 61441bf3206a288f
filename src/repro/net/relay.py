"""Firewall tunnel relay (§7 future work).

The paper closes with the need for "tunneling capabilities through
firewalls without a range of available ports open for Globus".  This
module provides that: a :class:`RelayService` runs on a well-connected
host (typically the broker machine); the Console Shadow makes one
*outbound* connection to it and registers a session key; every Console
Agent also connects *outbound* and attaches to the key.  The relay
multiplexes all agent traffic over the shadow's single connection using
numbered channels — no inbound port on the user's machine at all.

:class:`VirtualConnection` mirrors the
:class:`~repro.net.sockets.ConnectionEnd` interface (``send``/``recv``/
``close``/``network``/``local``/``remote``) so the streaming layer works
unchanged over a tunnel.  The price is two store-and-forward hops and
head-of-line sharing of the shadow's uplink — measurable, as a real relay
would be.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from ..sim import Environment, Store
from .errors import ConnectionClosedError, NetworkError
from .sockets import ConnectionEnd, Listener, connect
from .topology import Network

RELAY_PORT = 2813
#: Per-message framing added by the tunnel protocol.
TUNNEL_OVERHEAD = 32
#: Store-and-forward processing cost per relayed message.
FORWARD_COST = 0.00015


# Wire messages: ("register", key) / ("attach", key) / ("attached", ch)
# ("open", ch) / ("data", ch, payload, nbytes) / ("close", ch)


class TunnelError(NetworkError):
    """Tunnel-protocol failure (unknown key, duplicate registration)."""


class VirtualConnection:
    """A channel of a tunnel, presenting the ConnectionEnd interface."""

    def __init__(self, carrier: ConnectionEnd, channel: int,
                 label: str) -> None:
        self._carrier = carrier
        self.channel = channel
        self.label = label
        self.env: Environment = carrier.env
        self.network: Network = carrier.network
        self.local = carrier.local
        self.remote = carrier.remote
        self.inbox: Store = Store(carrier.env)
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, payload: Any, nbytes: int = 0) -> Generator:
        if self.closed:
            raise ConnectionClosedError(f"{self.label}: channel closed")
        yield from self._carrier.send(("data", self.channel, payload, nbytes),
                                      nbytes + TUNNEL_OVERHEAD)
        self.bytes_sent += nbytes

    def recv(self) -> Generator:
        if self.closed:
            raise ConnectionClosedError(f"{self.label}: channel closed")
        item = yield self.inbox.get()
        if item is _CLOSED:
            self.closed = True
            raise ConnectionClosedError(f"{self.label}: peer closed channel")
        payload, nbytes = item
        self.bytes_received += nbytes
        return payload

    @property
    def pending(self) -> int:
        return len(self.inbox.items)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            # Best-effort close notification rides the carrier.
            self.env.process(self._notify_close(),
                             name=f"{self.label}/close")

    def _notify_close(self) -> Generator:
        try:
            yield from self._carrier.send(("close", self.channel),
                                          TUNNEL_OVERHEAD)
        except NetworkError:
            return

    def _deliver(self, payload: Any, nbytes: int) -> None:
        self.inbox.put((payload, nbytes))

    def _peer_closed(self) -> None:
        self.inbox.put(_CLOSED)


class _ClosedSentinel:
    pass


_CLOSED = _ClosedSentinel()


@dataclass
class _Session:
    key: str
    shadow_conn: ConnectionEnd
    #: channel -> the agent-side carrier serving it.
    agents: Dict[int, ConnectionEnd]


class RelayService:
    """The relay process, bound to ``host:RELAY_PORT``."""

    def __init__(self, env: Environment, network: Network,
                 host: str) -> None:
        self.env = env
        self.network = network
        self.host = host
        self.listener = Listener(network, network.hosts[host], RELAY_PORT)
        self._sessions: Dict[str, _Session] = {}
        self._channel_counter = itertools.count(1)
        self.messages_relayed = 0
        env.process(self._accept_loop(), name=f"relay@{host}",
                    daemon=True)  # service root: relay infrastructure

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def _accept_loop(self) -> Generator:
        while not self.listener.closed:
            conn = yield from self.listener.accept()
            self.env.process(self._serve(conn), name=f"relay@{self.host}/serve")

    def _serve(self, conn: ConnectionEnd) -> Generator:
        try:
            first = yield from conn.recv()
        except NetworkError:
            return
        if not isinstance(first, tuple) or not first:
            conn.close()
            return
        if first[0] == "register":
            yield from self._serve_shadow(conn, first[1])
        elif first[0] == "attach":
            yield from self._serve_agent(conn, first[1])
        else:
            conn.close()

    # -- shadow side ------------------------------------------------------
    def _serve_shadow(self, conn: ConnectionEnd, key: str) -> Generator:
        if key in self._sessions:
            yield from conn.send(("error", f"key {key!r} already registered"),
                                 TUNNEL_OVERHEAD)
            conn.close()
            return
        session = _Session(key, conn, {})
        self._sessions[key] = session
        yield from conn.send(("registered", key), TUNNEL_OVERHEAD)
        try:
            while True:
                message = yield from conn.recv()
                if not isinstance(message, tuple):
                    continue
                if message[0] == "data":
                    _, channel, payload, nbytes = message
                    agent_conn = session.agents.get(channel)
                    if agent_conn is not None:
                        yield from self._forward(
                            agent_conn, ("data", channel, payload, nbytes),
                            nbytes)
                elif message[0] == "close":
                    _, channel = message
                    agent_conn = session.agents.pop(channel, None)
                    if agent_conn is not None:
                        yield from self._forward(agent_conn,
                                                 ("close", channel), 0)
        except NetworkError:
            pass
        finally:
            # Shadow gone: tear the whole session down.
            for agent_conn in session.agents.values():
                try:
                    agent_conn.close()
                except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- teardown path; close() failures cannot be surfaced anywhere
                    continue
            self._sessions.pop(key, None)

    # -- agent side ------------------------------------------------------
    def _serve_agent(self, conn: ConnectionEnd, key: str) -> Generator:
        session = self._sessions.get(key)
        if session is None:
            yield from conn.send(("error", f"unknown session {key!r}"),
                                 TUNNEL_OVERHEAD)
            conn.close()
            return
        channel = next(self._channel_counter)
        session.agents[channel] = conn
        yield from conn.send(("attached", channel), TUNNEL_OVERHEAD)
        yield from self._forward(session.shadow_conn, ("open", channel), 0)
        try:
            while True:
                message = yield from conn.recv()
                if not isinstance(message, tuple):
                    continue
                if message[0] == "data":
                    _, _ch, payload, nbytes = message
                    yield from self._forward(
                        session.shadow_conn,
                        ("data", channel, payload, nbytes), nbytes)
                elif message[0] == "close":
                    yield from self._forward(session.shadow_conn,
                                             ("close", channel), 0)
                    return
        except NetworkError:
            try:
                yield from self._forward(session.shadow_conn,
                                         ("close", channel), 0)
            except NetworkError:
                pass
        finally:
            session.agents.pop(channel, None)

    def _forward(self, conn: ConnectionEnd, message: tuple,
                 nbytes: int) -> Generator:
        yield self.env.timeout(FORWARD_COST)
        self.messages_relayed += 1
        yield from conn.send(message, nbytes + TUNNEL_OVERHEAD)


class TunnelEndpoint:
    """Shadow-side tunnel handle: Listener-compatible ``accept()``."""

    def __init__(self, env: Environment, carrier: ConnectionEnd,
                 key: str) -> None:
        self.env = env
        self.carrier = carrier
        self.key = key
        self.closed = False
        self._backlog: Store = Store(env)
        self._channels: Dict[int, VirtualConnection] = {}
        env.process(self._reader(), name=f"tunnel/{key}/reader")

    @classmethod
    def register(cls, network: Network, src: str, relay_host: str,
                 key: str) -> Generator:
        """Make the outbound connection and register ``key``."""
        carrier = yield from connect(network, src, relay_host, RELAY_PORT,
                                     label=f"tunnel/{key}")
        yield from carrier.send(("register", key), TUNNEL_OVERHEAD)
        ack = yield from carrier.recv()
        if not (isinstance(ack, tuple) and ack[0] == "registered"):
            raise TunnelError(f"registration failed: {ack!r}")
        return cls(network.env, carrier, key)

    def accept(self) -> Generator:
        """Next agent channel, as a VirtualConnection."""
        vc = yield self._backlog.get()
        return vc

    def close(self) -> None:
        self.closed = True
        self.carrier.close()

    def _reader(self) -> Generator:
        while not self.closed:
            try:
                message = yield from self.carrier.recv()
            except NetworkError:
                for vc in self._channels.values():
                    vc._peer_closed()
                return
            if not isinstance(message, tuple):
                continue
            if message[0] == "open":
                channel = message[1]
                vc = VirtualConnection(self.carrier, channel,
                                       f"tunnel/{self.key}/ch{channel}")
                self._channels[channel] = vc
                self._backlog.put(vc)
            elif message[0] == "data":
                _, channel, payload, nbytes = message
                vc = self._channels.get(channel)
                if vc is not None:
                    vc._deliver(payload, nbytes)
            elif message[0] == "close":
                vc = self._channels.pop(message[1], None)
                if vc is not None:
                    vc._peer_closed()


def connect_via_relay(network: Network, src: str, relay_host: str,
                      key: str, label: Optional[str] = None) -> Generator:
    """Agent-side: outbound connect + attach; returns a VirtualConnection."""
    carrier = yield from connect(network, src, relay_host, RELAY_PORT,
                                 label=label or f"tunnel-agent/{key}")
    yield from carrier.send(("attach", key), TUNNEL_OVERHEAD)
    reply = yield from carrier.recv()
    if not (isinstance(reply, tuple) and reply[0] == "attached"):
        raise TunnelError(f"attach failed: {reply!r}")
    channel = reply[1]
    vc = VirtualConnection(carrier, channel,
                           label or f"tunnel-agent/{key}/ch{channel}")
    network.env.process(_agent_reader(carrier, vc),
                        name=f"{vc.label}/reader")
    return vc


def _agent_reader(carrier: ConnectionEnd, vc: VirtualConnection) -> Generator:
    while True:
        try:
            message = yield from carrier.recv()
        except NetworkError:
            vc._peer_closed()
            return
        if not isinstance(message, tuple):
            continue
        if message[0] == "data":
            _, _channel, payload, nbytes = message
            vc._deliver(payload, nbytes)
        elif message[0] == "close":
            vc._peer_closed()
            return
