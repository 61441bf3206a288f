"""The Console Agent (CA).

§4: "The Console Agent runs on a Worker Node and consists of a shared
library that intercepts reading and writing operations on stdin, stdout,
and stderr of the running job.  When possible, the CA sends the output
back to the CS."

In this substrate the interposition point is the :class:`JobStdio` facade
installed into the job's :class:`~repro.grid.workernode.MachineContext`:
behaviors call ``yield from ctx.stdio.write(...)`` / ``read()`` exactly
where a real program would hit the trapped libc calls.  Each write pays the
trap + framing cost, lands in a flush-triggered buffer, and a background
:class:`~repro.streaming.sender.ChunkSender` ships it to the shadow.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..calibration import StreamingCosts
from ..jdl import StreamingMode
from ..net import ConnectionEnd, Network, NetworkError, connect
from ..sim import Environment, RandomStreams, Store
from .buffers import StreamBuffer
from .messages import ControlKind, ControlMessage, FRAME_OVERHEAD, StreamChunk, StreamName
from .sender import ChunkSender


class JobStdio:
    """What the running job sees as its stdin/stdout/stderr."""

    def __init__(self, agent: "ConsoleAgent") -> None:
        self._agent = agent

    def write(self, data: str = "", nbytes: Optional[int] = None,
              eol: bool = True,
              stream: StreamName = StreamName.STDOUT) -> Generator:
        """A trapped write: pay the interposition cost, then buffer."""
        agent = self._agent
        size = len(data) if nbytes is None else nbytes
        cost = agent.rng.jitter(
            agent.trap_stream, agent.costs.per_op_fast
            + size * agent.costs.per_byte, 0.10)
        yield agent.env.timeout(cost)
        buffer = agent.out_buffer if stream is StreamName.STDOUT else agent.err_buffer
        buffer.write(data, size, eol)
        agent.writes += 1

    def read(self) -> Generator:
        """A trapped (blocking) stdin read: next forwarded input chunk."""
        chunk = yield self._agent.stdin.get()
        self._agent.reads += 1
        return chunk

    def try_read(self) -> Optional[StreamChunk]:
        """Non-blocking stdin poll (for ranks that ignore input)."""
        if self._agent.stdin.items:
            get = self._agent.stdin.get()
            # Guaranteed immediate: items was non-empty.
            assert get.triggered
            self._agent.reads += 1
            return get.value
        return None

    def eof(self) -> Generator:
        """Flush remaining output and announce stream end."""
        yield from self._agent.send_eof()


class ConsoleAgent:
    """One CA instance: buffers, sender, receiver, and its connection."""

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 costs: StreamingCosts, node_host: str, mode: StreamingMode,
                 subjob: int = 0,
                 on_fatal: Optional[Callable[[str], None]] = None) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.costs = costs
        self.node_host = node_host
        self.mode = mode
        self.subjob = subjob
        self.name = f"ca/{node_host}/{subjob}"
        #: RNG stream of the per-write interposition cost.
        self.trap_stream = f"{self.name}/trap"
        self.on_fatal = on_fatal

        outbox = Store(env)
        self.out_buffer = StreamBuffer(env, StreamName.STDOUT,
                                       costs.buffer_size, costs.flush_timeout,
                                       subjob, f"{self.name}/out", outbox)
        self.err_buffer = StreamBuffer(env, StreamName.STDERR,
                                       costs.buffer_size, costs.flush_timeout,
                                       subjob, f"{self.name}/err", outbox)
        self.sender = ChunkSender(env, rng, costs, mode, outbox,
                                  name=f"{self.name}/send",
                                  on_fatal=self._on_sender_fatal)
        self.stdin: Store = Store(env)
        self.stdio = JobStdio(self)
        self.conn: Optional[ConnectionEnd] = None
        self.connected = env.event()
        self.killed = env.event()
        self.writes = 0
        self.reads = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self, shadow_host: str, shadow_port: int) -> Generator:
        """Connect back to the shadow and say hello (runs at job start)."""
        conn = yield from connect(self.network, self.node_host, shadow_host,
                                  shadow_port, label=self.name)
        yield from self._handshake(conn)
        return self

    def start_via_relay(self, relay_host: str, key: str) -> Generator:
        """Tunnel mode (§7): outbound connect to the relay, no shadow port."""
        from ..net.relay import connect_via_relay

        conn = yield from connect_via_relay(self.network, self.node_host,
                                            relay_host, key, label=self.name)
        yield from self._handshake(conn)
        return self

    def _handshake(self, conn) -> Generator:
        self.conn = conn
        hello = ControlMessage(ControlKind.HELLO, subjob=self.subjob,
                               info=self.mode.value)
        yield from conn.send(hello, FRAME_OVERHEAD)
        self.sender.attach(conn)
        self.env.process(self._receive_loop(), name=f"{self.name}/recv",
                         daemon=True)  # session pump: lives with the console
        if not self.connected.triggered:
            self.connected.succeed()

    def send_eof(self) -> Generator:
        self.out_buffer.flush()
        self.err_buffer.flush()
        # Let the sender drain before the EOF marker (bounded wait);
        # re-armable poll timer instead of one event per 10 ms cycle.
        deadline = self.env.now + 2.0
        drain_poll = self.env.timer(name=f"{self.name}/eof-drain")
        while not self.sender.idle and self.env.now < deadline:
            yield drain_poll.arm(0.01)
        if self.conn is not None:
            try:
                yield from self.conn.send(
                    ControlMessage(ControlKind.EOF, subjob=self.subjob),
                    FRAME_OVERHEAD)
            except NetworkError:
                pass

    def close(self) -> None:
        self.sender.stop()
        if self.conn is not None:
            self.conn.close()

    # -- internals ------------------------------------------------------------
    def _receive_loop(self) -> Generator:
        """Input path: stdin chunks and control messages from the shadow."""
        assert self.conn is not None
        # Re-armable spool-delay timer: reliable mode pays a disk cost per
        # inbound chunk, which is exactly the timer-churn pattern.
        spool_pace = self.env.timer(name=f"{self.name}/spool-in-pace")
        while True:
            try:
                message = yield from self.conn.recv()
            except NetworkError:
                return
            if isinstance(message, StreamChunk):
                if self.mode is StreamingMode.RELIABLE:
                    # Input is buffered to the local file too (both ends).
                    cost = self.rng.jitter(
                        f"{self.name}/spool-in",
                        self.costs.disk_per_op
                        + message.nbytes * self.costs.disk_per_byte, 0.15)
                    yield spool_pace.arm(cost)
                self.stdin.put(message)
            elif isinstance(message, ControlMessage):
                if message.kind is ControlKind.KILL:
                    if not self.killed.triggered:
                        self.killed.succeed(message.info)
                    return

    def _on_sender_fatal(self, reason: str) -> None:
        # §3: after the retry budget "they will give up and kill the
        # process".
        if not self.killed.triggered:
            self.killed.succeed(reason)
        if self.on_fatal is not None:
            self.on_fatal(reason)
