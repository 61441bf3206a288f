"""Stream buffers with the paper's three flush triggers.

§4: "buffers have been included in both the submitting and executing
machines to provide users with a genuine feeling of interactivity...
This flushing is produced in 3 cases: when the output buffer on the user
machine is full, when a timeout occurs, when an 'end of line' is found."
Input is forwarded "when the 'enter' key is hit".

:class:`StreamBuffer` coalesces writes and emits flushed chunks into an
outbox :class:`~repro.sim.Store`; a cancellable :class:`~repro.sim.Timer`
implements the timeout trigger — it is armed when the buffer becomes
dirty and cancelled by any synchronous flush, so the per-write hot path
allocates no events at all (the seed used a dedicated timer process
woken through a fresh event per dirty period).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment, Store, Timer
from .messages import StreamChunk, StreamName


class StreamBuffer:
    """Coalescing buffer for one direction of one stdio stream."""

    def __init__(self, env: Environment, stream: StreamName, capacity: int,
                 flush_timeout: Optional[float], subjob: int = 0,
                 name: str = "buffer", outbox: Optional[Store] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self.stream = stream
        self.capacity = capacity
        self.flush_timeout = flush_timeout
        self.subjob = subjob
        self.name = name
        #: Flushed chunks, consumed by a sender/presenter process.  May be
        #: shared between buffers (stdout+stderr feed one sender).
        self.outbox: Store = outbox if outbox is not None else Store(env)
        self._data: List[str] = []
        self._nbytes = 0
        self._eol_pending = False
        self._dirty_since: Optional[float] = None
        self.flush_counts = {"eol": 0, "full": 0, "timeout": 0, "manual": 0}
        self._timer: Optional[Timer] = None
        if flush_timeout is not None:
            self._timer = Timer(env, callback=self._on_timeout,
                                name=f"{name}/timer")

    # -- producer side ------------------------------------------------------
    def write(self, data: str, nbytes: int, eol: bool) -> None:
        """Append a write; flushes synchronously on eol or buffer-full.

        A write larger than the remaining buffer space is split: every time
        the buffer fills, a full-capacity chunk is emitted (the "buffer
        full" trigger), so a 10 KB write through a 4 KB buffer costs three
        messages while a 64 KB buffer ships it whole — the §6.2 explanation
        for reliable mode beating ssh at 10 KB.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self._dirty_since is None:
            self._dirty_since = self.env.now
            if self._timer is not None:
                self._timer.restart(self.flush_timeout)
        remaining = nbytes
        first = True
        while self._nbytes + remaining >= self.capacity:
            take = self.capacity - self._nbytes
            self._data.append(data if first else "")
            first = False
            self._nbytes += take
            remaining -= take
            self._flush("full")
            if self._dirty_since is None and remaining > 0:
                # The "full" flush reset the dirty clock (and cancelled the
                # timer); the residual tail (smaller than a line) starts a
                # fresh timeout window, so the timer must be re-armed or
                # the residual would sit stranded past flush_timeout with
                # nothing scheduled to flush it.
                self._dirty_since = self.env.now
                if self._timer is not None:
                    self._timer.restart(self.flush_timeout)
        if remaining > 0 or (nbytes == 0 and first):
            self._data.append(data if first else "")
            self._nbytes += remaining
        elif eol and not first:
            # The write filled the buffer exactly; ship the line terminator
            # as its own tiny chunk so the eol trigger is not lost.
            self._data.append("")
        self._eol_pending = self._eol_pending or eol
        if eol:
            self._flush("eol")

    def flush(self) -> None:
        """Manual flush (used at EOF so no tail data is stranded)."""
        self._flush("manual")

    @property
    def pending_bytes(self) -> int:
        return self._nbytes

    # -- internals ---------------------------------------------------------
    def _flush(self, reason: str) -> None:
        if self._nbytes == 0 and not self._data:
            self._dirty_since = None
            if self._timer is not None:
                self._timer.cancel()
            return
        chunk = StreamChunk(
            stream=self.stream,
            data="".join(self._data),
            nbytes=self._nbytes,
            eol=self._eol_pending,
            subjob=self.subjob,
        )
        self._data = []
        self._nbytes = 0
        self._eol_pending = False
        self._dirty_since = None
        if self._timer is not None:
            self._timer.cancel()
        self.flush_counts[reason] += 1
        t = self.env.telemetry
        if t is not None:
            t.counter(f"buffer.flushes.{reason}").inc()
            t.counter("buffer.flushed_bytes").inc(chunk.nbytes)
            # Outbox depth across all buffers sharing this store: chunks
            # enqueued but not yet drained by a sender.
            t.gauge("buffer.outbox_depth").set(len(self.outbox.items) + 1)
        self.outbox.put(chunk)

    def _on_timeout(self, _timer: Timer) -> None:
        # Re-check: any synchronous flush cancels the timer, but be
        # defensive against a same-instant write racing the firing.
        assert self.flush_timeout is not None
        if self._dirty_since is not None and \
                self.env.now >= self._dirty_since + self.flush_timeout - 1e-12:
            self._flush("timeout")
