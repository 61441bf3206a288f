"""Disk spool: the reliable mode's file buffer.

§3: reliable streaming "implies an intermediate buffering in a file of the
I/O stream at both ends of the communication", and §6.2 attributes the
reliable mode's slowness on small transfers to "the extra overhead incurred
in disk write and read operations".  The spool charges those costs and
preserves chunks across network failures until explicitly committed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from ..calibration import StreamingCosts
from ..sim import Environment, RandomStreams
from .messages import StreamChunk


class DiskSpool:
    """A FIFO of chunks persisted to the local disk."""

    def __init__(self, env: Environment, rng: RandomStreams,
                 costs: StreamingCosts, name: str = "spool") -> None:
        self.env = env
        self.rng = rng
        self.costs = costs
        self.name = name
        self._write_stream = f"{name}/write"
        self._read_stream = f"{name}/read"
        self._items: Deque[StreamChunk] = deque()
        self.bytes_written = 0
        self.bytes_read = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    def _cost(self, nbytes: int, stream: str) -> float:
        base = self.costs.disk_per_op + nbytes * self.costs.disk_per_byte
        return self.rng.jitter(stream, base, 0.15)

    def write(self, chunk: StreamChunk) -> Generator:
        """Append a chunk to the spool file (charges the write cost)."""
        yield self.env.timeout(self._cost(chunk.nbytes, self._write_stream))
        self._items.append(chunk)
        self.bytes_written += chunk.nbytes

    def read_head(self) -> Generator:
        """Read (but do not remove) the oldest chunk, charging read cost.

        The chunk is only removed by :meth:`commit_head` after a successful
        send — this is what makes the mode reliable: a failed transfer can
        re-read the same data after reconnection.
        """
        if not self._items:
            raise IndexError(f"{self.name}: spool is empty")
        chunk = self._items[0]
        yield self.env.timeout(self._cost(chunk.nbytes, self._read_stream))
        self.bytes_read += chunk.nbytes
        return chunk

    def commit_head(self) -> StreamChunk:
        """Remove the oldest chunk after its successful delivery."""
        if not self._items:
            raise IndexError(f"{self.name}: spool is empty")
        return self._items.popleft()

    def peek(self) -> Optional[StreamChunk]:
        return self._items[0] if self._items else None
