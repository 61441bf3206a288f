"""The Console Shadow / Job Shadow (CS/JS).

§4: the shadow runs on the User-Interface machine, listens on a randomly
probed (or user-pinned) port, accepts one connection per Console Agent
(one per MPICH-G2 subjob), presents merged output to the user's console,
and forwards typed input lines to *every* agent ("The input will be
forwarded to every subjob and it is the users' responsibility to guarantee
that input will be read by a single subjob").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..calibration import StreamingCosts
from ..jdl import StreamingMode
from ..net import ConnectionEnd, Listener, Network, PortAllocator
from ..sim import Environment, Event, RandomStreams, Store
from .buffers import StreamBuffer
from .messages import ControlKind, ControlMessage, FRAME_OVERHEAD, StreamChunk, StreamName
from .sender import ChunkSender


@dataclass(frozen=True)
class ConsoleLine:
    """One item presented on the user's screen."""

    time: float
    subjob: int
    stream: StreamName
    data: str
    nbytes: int


class ConsoleShadow:
    """Shadow process bound to the UI machine."""

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 costs: StreamingCosts, ui_host: str, mode: StreamingMode,
                 expected_agents: int = 1,
                 port: Optional[int] = None,
                 endpoint: Optional[object] = None) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.costs = costs
        self.ui_host = ui_host
        self.mode = mode
        self.expected_agents = expected_agents
        self._type_stream = f"js/{ui_host}/type"
        self._spool_stream = f"js/{ui_host}/spool"
        if endpoint is not None:
            # Tunnel mode (§7): agents arrive through a relay; no inbound
            # port on the user's machine at all.
            self.port = None
            self.listener = endpoint
        else:
            host = network.hosts[ui_host]
            self.port = PortAllocator(host).allocate(pinned=port)
            self.listener = Listener(network, host, self.port)

        #: The user's screen: ConsoleLine items in arrival order.
        self.console: Store = Store(env)
        self.lines: List[ConsoleLine] = []
        #: Fires when the first output chunk reaches the user machine
        #: (Table I's "first output arrives in the user machine").
        self.first_output: Event = env.event()
        #: Fires when every expected agent has connected.
        self.all_connected: Event = env.event()
        #: Fires when every agent reported EOF.
        self.all_eof: Event = env.event()

        self._agents: Dict[int, ConnectionEnd] = {}
        self._senders: Dict[int, ChunkSender] = {}
        self._outboxes: Dict[int, Store] = {}
        self._eofs: Dict[int, bool] = {}
        #: Input typed before (all) agents connected: like a terminal's
        #: line buffer, it is replayed to late-connecting agents so no
        #: keystroke is lost during startup.
        self._pending_input: List[StreamChunk] = []
        # The JS output buffer (flush on full/timeout/eol) for non-eol
        # fragments; eol chunks flush synchronously by construction.
        self._present_buffer = StreamBuffer(
            env, StreamName.STDOUT, costs.buffer_size, costs.flush_timeout,
            name=f"js/{ui_host}/present")
        # Service roots: the shadow listens and presents for as long as
        # the user keeps the console open.
        env.process(self._accept_loop(), name=f"js/{ui_host}/accept",
                    daemon=True)
        env.process(self._present_loop(), name=f"js/{ui_host}/present",
                    daemon=True)
        self.closed = False

    # -- user-facing API ---------------------------------------------------
    @property
    def connected_agents(self) -> int:
        return len(self._agents)

    def type_line(self, data: str, nbytes: Optional[int] = None) -> Generator:
        """The user hits enter: forward the line to every agent's stdin.

        Returns immediately after the local processing cost; the transfer
        itself is asynchronous through each agent's sender (reliable mode
        spools it first).
        """
        size = len(data) if nbytes is None else nbytes
        cost = self.rng.jitter(self._type_stream,
                               self.costs.per_op_fast
                               + size * self.costs.per_byte, 0.10)
        yield self.env.timeout(cost)
        chunk = StreamChunk(StreamName.STDIN, data, size, eol=True)
        for outbox in self._outboxes.values():
            outbox.put(chunk)
        if len(self._agents) < self.expected_agents:
            self._pending_input.append(chunk)

    def kill_job(self, reason: str = "user abort") -> Generator:
        """On-line output control (§1): the user cancels the job."""
        for subjob, conn in self._agents.items():
            try:
                yield from conn.send(
                    ControlMessage(ControlKind.KILL, subjob=subjob,
                                   info=reason), FRAME_OVERHEAD)
            except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- best-effort broadcast; dead agents are skipped
                continue

    def close(self) -> None:
        self.closed = True
        self.listener.close()
        for sender in self._senders.values():
            sender.stop()
        for conn in self._agents.values():
            conn.close()

    # -- internals ---------------------------------------------------------
    def _accept_loop(self) -> Generator:
        while not self.closed:
            conn = yield from self.listener.accept()
            self.env.process(self._serve_agent(conn),
                             name=f"js/{self.ui_host}/serve")

    def _serve_agent(self, conn: ConnectionEnd) -> Generator:
        hello = yield from conn.recv()
        if not (isinstance(hello, ControlMessage)
                and hello.kind is ControlKind.HELLO):
            conn.close()
            return
        subjob = hello.subjob
        self._agents[subjob] = conn
        outbox = Store(self.env)
        self._outboxes[subjob] = outbox
        sender = ChunkSender(self.env, self.rng, self.costs, self.mode,
                             outbox, name=f"js/{self.ui_host}/in{subjob}")
        sender.attach(conn)
        self._senders[subjob] = sender
        self._eofs[subjob] = False
        # Replay input typed before this agent connected.
        for chunk in self._pending_input:
            outbox.put(chunk)
        if len(self._agents) >= self.expected_agents:
            self._pending_input.clear()
            if not self.all_connected.triggered:
                self.all_connected.succeed(self.env.now)

        while True:
            try:
                message = yield from conn.recv()
            except Exception:  # noqa: BLE001 - connection torn down
                return
            if isinstance(message, StreamChunk):
                yield from self._deliver(message)
            elif isinstance(message, ControlMessage):
                if message.kind is ControlKind.EOF:
                    self._eofs[message.subjob] = True
                    if (len(self._eofs) >= self.expected_agents
                            and all(self._eofs.values())
                            and not self.all_eof.triggered):
                        self.all_eof.succeed(self.env.now)

    def _deliver(self, chunk: StreamChunk) -> Generator:
        """Shadow-side arrival: optional disk buffering, then presentation."""
        if self.mode is StreamingMode.RELIABLE:
            cost = self.rng.jitter(
                self._spool_stream,
                self.costs.disk_per_op + chunk.nbytes * self.costs.disk_per_byte,
                0.15)
            yield self.env.timeout(cost)
        if chunk.eol:
            self._present(chunk)
        else:
            # Fragment without end-of-line: coalesce in the JS buffer and
            # let the full/timeout triggers emit it.
            self._present_buffer.write(chunk.data, chunk.nbytes, eol=False)

    def _present_loop(self) -> Generator:
        while True:
            chunk = yield self._present_buffer.outbox.get()
            self._present(chunk)

    def _present(self, chunk: StreamChunk) -> None:
        line = ConsoleLine(self.env.now, chunk.subjob, chunk.stream,
                           chunk.data, chunk.nbytes)
        self.lines.append(line)
        self.console.put(line)
        if not self.first_output.triggered:
            self.first_output.succeed(self.env.now)
