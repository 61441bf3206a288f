"""The §6.2 I/O-streaming test suite.

"A client and a server process were created in the submission and
execution machines... The client and server executed a coordinated
sequence of 1,000 read/write operations... Data transferred in each
read/write operation varied from 10 bytes to 10K, and we measured the
round trip incurred by each sequence."
"""

from __future__ import annotations

from typing import Generator, List

from ..baselines.base import Mechanism

def run_sequences(mechanism: Mechanism, nbytes: int, count: int,
                  server_time: float = 0.0) -> Generator:
    """Run ``count`` coordinated sequences; returns per-sequence times."""
    if not mechanism.established:
        yield from mechanism.establish()
    times: List[float] = []
    for _ in range(count):
        elapsed = yield from mechanism.roundtrip(nbytes, nbytes,
                                                 server_time=server_time)
        times.append(elapsed)
    return times
