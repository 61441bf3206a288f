"""Series utilities: the shape checks the experiment harness asserts.

The reproduction's success criterion is *shape*, not absolute numbers:
who wins, by roughly what factor, and where crossovers fall.  These
helpers turn raw per-sequence/per-iteration samples into those judgments.

Every number here is plain float arithmetic done in numpy's own order,
so it equals what ``np.mean``, ``np.std(ddof=1)`` and ``np.linspace``
return, to the last bit and signed zero included
(``tests/test_metrics.py::TestNumpyOrder`` holds that).  That keeps
numpy off the read path: a fully cached ``repro run all`` merges and
renders without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Series:
    """A named sample vector (one curve of a paper figure)."""

    name: str
    values: Tuple[float, ...]

    @staticmethod
    def of(name: str, values) -> "Series":
        return Series(name, tuple(float(v) for v in values))

    @property
    def mean(self) -> float:
        return _mean(self.values) if self.values else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation (``ddof=1``)."""
        values = self.values
        if len(values) < 2:
            return 0.0
        mean = _mean(values)
        deviations = [v - mean for v in values]
        return math.sqrt(_sum([d * d for d in deviations])
                         / (len(values) - 1))


#: numpy's pairwise-summation block (``PW_BLOCKSIZE``).
_BLOCK = 128


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``values[lo:lo + n]``, ``n >= 1``."""
    if n < 8:
        total = values[lo]
        for i in range(lo + 1, lo + n):
            total += values[i]
        return total
    if n <= _BLOCK:
        # Eight strided accumulators, combined as a tree, then the tail.
        end = lo + n - n % 8
        r = []
        for j in range(lo, lo + 8):
            acc = values[j]
            for v in values[j + 8:end:8]:
                acc += v
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a non-empty float64 vector: its identity +0.0
    plus the pairwise sum (so a sum of -0.0s is +0.0)."""
    return 0.0 + _pairwise(values, 0, len(values))


def _mean(values: Sequence[float]) -> float:
    return _sum(values) / len(values)


def linspace(start: float, stop: float, num: int) -> List[float]:
    """``np.linspace(start, stop, num)`` as a list of floats."""
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    if div > 0:
        step = delta / div
        if step == 0:
            points = [i / div * delta + start for i in range(num)]
        else:
            points = [i * step + start for i in range(num)]
        points[-1] = stop
        return points
    return [i * delta + start for i in range(num)]


def ranking(series: Mapping[str, Series]) -> List[str]:
    """Names ordered fastest (smallest mean) first."""
    return sorted(series, key=lambda name: series[name].mean)


def winner(series: Mapping[str, Series]) -> str:
    return ranking(series)[0]


def ratio(a: Series, b: Series) -> float:
    """mean(a) / mean(b) — the paper's "more than two times smaller"."""
    return a.mean / b.mean


def crossover_size(by_size_a: Mapping[int, Series],
                   by_size_b: Mapping[int, Series]) -> Optional[int]:
    """Smallest payload size at which ``a`` becomes faster than ``b``.

    Feed it e.g. {10: reliable@10B, ...} vs ssh to locate the Fig. 6
    reliable-beats-ssh crossover.  None if ``a`` never wins.
    """
    for size in sorted(set(by_size_a) & set(by_size_b)):
        if by_size_a[size].mean < by_size_b[size].mean:
            return size
    return None


def relative_increase(reference: Series, observed: Series) -> float:
    """(observed - reference) / reference, in fractional terms."""
    return (observed.mean - reference.mean) / reference.mean


def indistinguishable(a: Series, b: Series, tolerance: float = 0.02) -> bool:
    """True when two curves differ by < ``tolerance`` relative mean
    (Fig. 8: exclusive vs shared-alone "indistinguishable")."""
    if a.mean == 0:
        return b.mean == 0
    return abs(relative_increase(a, b)) < tolerance


def downsample(values: Sequence[float], buckets: int) -> List[float]:
    """Bucket means, for rendering long series compactly."""
    values = [float(v) for v in values]
    if not values or buckets <= 0:
        return []
    if len(values) <= buckets:
        return values
    # np.linspace(0, n, buckets + 1, dtype=int) floors its float points.
    edges = [math.floor(x) for x in linspace(0, len(values), buckets + 1)]
    return [_mean(values[a:b]) for a, b in zip(edges[:-1], edges[1:])
            if b > a]


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode mini-chart of a series (for terminal experiment output)."""
    ticks = "▁▂▃▄▅▆▇█"
    data = downsample(values, width)
    if not data:
        return ""
    lo, hi = min(data), max(data)
    if hi - lo < 1e-12:
        return ticks[0] * len(data)
    out = []
    for v in data:
        idx = int((v - lo) / (hi - lo) * (len(ticks) - 1))
        out.append(ticks[idx])
    return "".join(out)
