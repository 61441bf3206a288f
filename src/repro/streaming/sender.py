"""Chunk sender: ships flushed chunks over the agent<->shadow connection.

Implements the mode split of §3:

* **fast** — no intermediate file; a chunk that hits a broken network is
  *lost* (counted, never retried) and the stream carries on;
* **reliable** — every chunk goes through the :class:`DiskSpool`; on
  failure the sender retries at ``retry_interval`` for ``max_retries``
  attempts, then gives up and reports a fatal condition ("after which they
  will give up and kill the process").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..calibration import StreamingCosts
from ..jdl import StreamingMode
from ..net import ConnectionEnd, NetworkError
from ..sim import Environment, RandomStreams, Store, Timer, trace_event
from .messages import FRAME_OVERHEAD, StreamChunk
from .spool import DiskSpool


@dataclass
class SenderStats:
    sent: int = 0
    bytes_sent: int = 0
    dropped: int = 0
    bytes_dropped: int = 0
    retries: int = 0
    reconnect_waits: float = 0.0


class ChunkSender:
    """Background process draining an outbox into a connection."""

    def __init__(self, env: Environment, rng: RandomStreams,
                 costs: StreamingCosts, mode: StreamingMode, outbox: Store,
                 name: str = "sender",
                 on_fatal: Optional[Callable[[str], None]] = None) -> None:
        self.env = env
        self.rng = rng
        self.costs = costs
        self.mode = mode
        self.outbox = outbox
        self.name = name
        self.on_fatal = on_fatal
        # Per-chunk names, built once.
        self._burst_stream = f"{name}/burst"
        self._backlog_gauge = "stream.backlog_bytes.reliable" \
            if mode is StreamingMode.RELIABLE else "stream.backlog_bytes.fast"
        self.stats = SenderStats()
        self.spool = DiskSpool(env, rng, costs, name=f"{name}/spool") \
            if mode is StreamingMode.RELIABLE else None
        self._conn: Optional[ConnectionEnd] = None
        self._conn_ready = env.event()
        self._stopped = False
        self.dead = False
        #: True while a chunk popped from the outbox has not been fully
        #: delivered (or dropped/spooled) yet.  Without this, ``idle``
        #: reports True for a fast-mode chunk that is mid-``send`` — it is
        #: in neither the outbox nor the spool — and EOF teardown strands
        #: the tail of the stream.
        self._in_flight = False
        #: Re-armable pacing/retry timers: the retry loop and the fast-mode
        #: jitter wait re-arm these in place instead of allocating a fresh
        #: Timeout per attempt (retry storms during outages are exactly the
        #: timer-churn case the two-lane kernel's Timer exists for).
        self._retry_timer = Timer(env, name=f"{name}/retry")
        self._pace_timer = Timer(env, name=f"{name}/pace")
        self._proc = env.process(self._run(), name=name,
                                 daemon=True)  # session pump: lives with the console

    # -- wiring ---------------------------------------------------------
    def attach(self, conn: ConnectionEnd) -> None:
        """Give the sender its (re-)established connection."""
        self._conn = conn
        if not self._conn_ready.triggered:
            self._conn_ready.succeed()

    def stop(self) -> None:
        self._stopped = True

    @property
    def idle(self) -> bool:
        """True when everything handed to the sender has been delivered."""
        spool_empty = self.spool is None or self.spool.empty
        return not self._in_flight and len(self.outbox.items) == 0 \
            and spool_empty

    # -- the drain loop ------------------------------------------------------
    def _run(self) -> Generator:
        yield self._conn_ready
        while not self._stopped:
            chunk = yield self.outbox.get()
            if chunk is None:  # sentinel for orderly shutdown
                return
            assert isinstance(chunk, StreamChunk)
            self._in_flight = True
            t = self.env.telemetry
            if t is not None:
                t.gauge(self._backlog_gauge).inc(chunk.nbytes)
            try:
                if self.mode is StreamingMode.RELIABLE:
                    assert self.spool is not None
                    yield from self.spool.write(chunk)
                    tr = self.env.tracer
                    if tr is not None:
                        tr.event("spool", sender=self.name,
                                 depth=len(self.spool))
                    ok = yield from self._send_reliable()
                    if not ok:
                        return
                else:
                    yield from self._send_fast(chunk)
            finally:
                self._in_flight = False

    def _wire_size(self, chunk: StreamChunk) -> int:
        return chunk.nbytes + FRAME_OVERHEAD

    def _send_fast(self, chunk: StreamChunk) -> Generator:
        assert self._conn is not None
        # Fast mode ships unbuffered, so each send rides the raw path
        # jitter that windowed protocols smooth out — §6.2: "our method
        # exhibits a higher variance" on the wide area.  The extra term is
        # a half-normal with scale proportional to the path latency, so it
        # vanishes on the campus LAN.
        latency = self._conn.network.path(
            self._conn.local, self._conn.remote).latency
        if latency > 0 and self.costs.fast_wan_jitter > 0:
            burst = abs(self.rng.normal(
                self._burst_stream, 0.0, self.costs.fast_wan_jitter * latency))
            if burst > 0:
                yield self._pace_timer.arm(burst)
        tr = self.env.tracer
        span = tr.begin("stream_chunk", site=None,
                        nbytes=chunk.nbytes) if tr is not None else None
        try:
            yield from self._conn.send(chunk, self._wire_size(chunk))
            self.stats.sent += 1
            self.stats.bytes_sent += chunk.nbytes
            if tr is not None:
                tr.end(span)
            t = self.env.telemetry
            if t is not None:
                t.counter("stream.chunks_sent.fast").inc()
                t.gauge("stream.backlog_bytes.fast").dec(chunk.nbytes)
        except NetworkError:
            # §3: "data may be lost in case of network failure".
            self.stats.dropped += 1
            self.stats.bytes_dropped += chunk.nbytes
            if tr is not None:
                tr.end(span, status="dropped")
                tr.event("drop", sender=self.name, nbytes=chunk.nbytes)
            t = self.env.telemetry
            if t is not None:
                t.counter("stream.chunks_dropped.fast").inc()
                t.counter(f"stream.dropped.{self.name}").inc()
                t.gauge("stream.backlog_bytes.fast").dec(chunk.nbytes)

    def _send_reliable(self) -> Generator:
        """Drain the spool head-first with retry/reconnect semantics."""
        assert self.spool is not None and self._conn is not None
        failures = 0
        while not self.spool.empty:
            chunk = yield from self.spool.read_head()
            tr = self.env.tracer
            span = tr.begin("stream_chunk", site=None,
                            nbytes=chunk.nbytes) if tr is not None else None
            try:
                yield from self._conn.send(chunk, self._wire_size(chunk))
            except NetworkError:
                failures += 1
                self.stats.retries += 1
                if tr is not None:
                    tr.end(span, status="retry")
                    tr.event("retry", sender=self.name, failures=failures,
                             spool_depth=len(self.spool))
                t = self.env.telemetry
                if t is not None:
                    t.counter("stream.retries.reliable").inc()
                    t.counter(f"stream.retries.{self.name}").inc()
                if failures >= self.costs.max_retries:
                    self._fatal(
                        f"gave up after {failures} retries "
                        f"({len(self.spool)} chunks stranded)")
                    return False
                interval = self.rng.jitter(f"{self.name}/retry",
                                           self.costs.retry_interval, 0.05)
                self.stats.reconnect_waits += interval
                if t is not None:
                    t.counter("stream.reconnects.reliable").inc()
                    t.counter(f"stream.reconnects.{self.name}").inc()
                wait = tr.begin("reconnect") if tr is not None else None
                yield self._retry_timer.arm(interval)
                if tr is not None:
                    tr.end(wait)
                continue
            failures = 0
            self.spool.commit_head()
            self.stats.sent += 1
            self.stats.bytes_sent += chunk.nbytes
            if tr is not None:
                tr.end(span)
            t = self.env.telemetry
            if t is not None:
                t.counter("stream.chunks_sent.reliable").inc()
                t.gauge("stream.backlog_bytes.reliable").dec(chunk.nbytes)
        return True

    def _fatal(self, reason: str) -> None:
        self.dead = True
        trace_event(self.env, "sender_fatal", sender=self.name, reason=reason)
        t = self.env.telemetry
        if t is not None:
            t.counter("stream.sender_fatal").inc()
        if self.on_fatal is not None:
            self.on_fatal(f"{self.name}: {reason}")
