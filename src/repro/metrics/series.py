"""Series utilities: the shape checks the experiment harness asserts.

The reproduction's success criterion is *shape*, not absolute numbers:
who wins, by roughly what factor, and where crossovers fall.  These
helpers turn raw per-sequence/per-iteration samples into those judgments.

numpy is imported where it is used, not at module level: unpickling a
cached :class:`Series` (``repro cache ls``) must not load it, while every
rendered number still comes from the same ``np.mean``/``np.std`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:
    from ..sim.monitor import SummaryStats


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
        import numpy as np

        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        import numpy as np

        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    def stats(self) -> SummaryStats:
        from ..sim.monitor import SummaryStats

        return SummaryStats.of(self.values)


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
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or buckets <= 0:
        return []
    if arr.size <= buckets:
        return [float(v) for v in arr]
    edges = np.linspace(0, arr.size, buckets + 1, dtype=int)
    return [float(arr[a:b].mean()) for a, b in zip(edges[:-1], edges[1:])
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
