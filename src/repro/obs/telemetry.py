"""Sim-time metrics registry: counters, gauges, histograms, time series.

The paper's evaluation is read off continuous signals — queue depths
while the broker matches, spool backlogs while the reliable sender rides
out an outage, VM-slot occupancy under glide-in multiprogramming, free
nodes per LRMS — yet spans (:mod:`repro.obs.tracer`) only capture
*intervals*.  :class:`Telemetry` adds the missing time-series view.

Hook contract (mirrors ``env.tracer`` exactly):

* ``env.telemetry`` is ``None`` unless a registry is installed; the
  instrumented layers (core, streaming, multiprog, grid, net) read the
  attribute and skip everything when it is unset::

      t = self.env.telemetry
      if t is not None:
          t.gauge("broker.queue.batch").inc()

  so an uninstrumented run pays one attribute load per hook and
  allocates nothing.  The layers never import ``repro.obs`` (enforced
  by the ``obs-direct-import`` simlint rule).
* **Read-only**: recording a sample never creates events, consumes
  kernel eids, or draws from an RNG stream — installing telemetry is
  guaranteed not to change the simulation outcome, which is what keeps
  the golden renders byte-identical with telemetry on.
* **Bounded memory**: every :class:`TimeSeries` is capped at
  ``max_points`` via deterministic stride decimation (keep every 2nd
  retained point, double the stride), and a histogram is one bounded
  :class:`QuantileSketch`, so soaks cannot grow the registry
  unboundedly.

Recording is **on-change**: each gauge/counter update appends a
``(sim_time, value)`` point (subject to decimation).

Snapshots
---------
:meth:`Telemetry.snapshot` returns a JSON-able, deterministically
ordered dict; :func:`merge_snapshots` folds many snapshots (one per
runner cell, or one per environment built inside a cell) into one.
:func:`telemetry_scope` installs a factory on
:class:`~repro.sim.environment.Environment` so every environment built
inside the scope gets a registry automatically — the sharded runner uses
it to carry per-cell telemetry through its content-addressed cache.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileSketch",
    "Telemetry",
    "TimeSeries",
    "merge_snapshots",
    "scope_snapshot",
    "telemetry_scope",
]


class QuantileSketch:
    """An online, mergeable quantile summary with bounded memory.

    Values are counted into logarithmic buckets (DDSketch-style): bucket
    ``k`` holds values in ``(gamma**(k-1), gamma**k]`` with
    ``gamma = (1 + alpha) / (1 - alpha)``, so any reported quantile is
    within relative error ``alpha`` of a value whose *rank* is exact.
    Negative values go to a mirrored store and zeros to their own count,
    so the sketch covers the full real line.

    Compared to the P²/GK family, log buckets were chosen because the
    merge is *exact*: folding two sketches just adds bucket counts, so
    ``merge_snapshots`` produces identical percentiles no matter how a
    campaign was sharded — the property the runner's serial == parallel
    == cache-served contract needs.  Everything is deterministic: no
    randomness, no data-dependent restructuring beyond the (documented)
    low-bucket collapse at ``max_buckets``.
    """

    __slots__ = ("alpha", "gamma", "_ln_gamma", "max_buckets", "count",
                 "zeros", "total", "minimum", "maximum", "pos", "neg",
                 "collapsed")

    def __init__(self, alpha: float = 0.01, max_buckets: int = 4096) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if max_buckets < 8:
            raise ValueError("max_buckets must be >= 8")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._ln_gamma = math.log(self.gamma)
        self.max_buckets = max_buckets
        self.count = 0
        self.zeros = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: bucket key -> count, for positive / negative magnitudes.
        self.pos: Dict[int, int] = {}
        self.neg: Dict[int, int] = {}
        #: How many low buckets were folded upward to respect max_buckets.
        self.collapsed = 0

    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._ln_gamma)

    def _value(self, key: int) -> float:
        # Representative of (gamma**(k-1), gamma**k]: gamma**k * (1-alpha),
        # which is within alpha relative error of every value in the bucket.
        return (self.gamma ** key) * (1.0 - self.alpha)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            key = self._key(value)
            self.pos[key] = self.pos.get(key, 0) + 1
        elif value < 0.0:
            key = self._key(-value)
            self.neg[key] = self.neg.get(key, 0) + 1
        else:
            self.zeros += 1
        if len(self.pos) + len(self.neg) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest-magnitude bucket into its neighbour.

        Sacrifices accuracy near zero first (where absolute error is
        smallest), preserving the tail quantiles scale campaigns read.
        """
        store = self.pos if len(self.pos) >= len(self.neg) else self.neg
        keys = sorted(store)
        lowest = keys[0]
        store[keys[1]] = store.get(keys[1], 0) + store.pop(lowest)
        self.collapsed += 1

    def quantile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]); NaN when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return float("nan")
        if q == 0.0:
            return self.minimum
        if q == 100.0:
            return self.maximum
        target = max(1, math.ceil(self.count * (q / 100.0)))
        cumulative = 0
        # Ascending value order: most-negative first (descending magnitude
        # keys in the mirrored store), then zeros, then positives.
        for key in sorted(self.neg, reverse=True):
            cumulative += self.neg[key]
            if cumulative >= target:
                return self._clamp(-self._value(key))
        cumulative += self.zeros
        if cumulative >= target:
            return 0.0
        for key in sorted(self.pos):
            cumulative += self.pos[key]
            if cumulative >= target:
                return self._clamp(self._value(key))
        return self.maximum  # pragma: no cover - fp-rounding fallback

    def _clamp(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (exact: bucket counts add)."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})")
        self.count += other.count
        self.zeros += other.zeros
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for key, n in other.pos.items():
            self.pos[key] = self.pos.get(key, 0) + n
        for key, n in other.neg.items():
            self.neg[key] = self.neg.get(key, 0) + n
        self.collapsed += other.collapsed
        while len(self.pos) + len(self.neg) > self.max_buckets:
            self._collapse()
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able state (string bucket keys, sorted numerically)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zeros": self.zeros,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "collapsed": self.collapsed,
            "pos": {str(k): self.pos[k] for k in sorted(self.pos)},
            "neg": {str(k): self.neg[k] for k in sorted(self.neg)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  max_buckets: int = 4096) -> "QuantileSketch":
        sketch = cls(alpha=float(data["alpha"]), max_buckets=max_buckets)
        sketch.count = int(data["count"])
        sketch.zeros = int(data["zeros"])
        sketch.total = float(data["total"])
        sketch.minimum = (float(data["min"]) if data.get("min") is not None
                          else float("inf"))
        sketch.maximum = (float(data["max"]) if data.get("max") is not None
                          else float("-inf"))
        sketch.collapsed = int(data.get("collapsed", 0))
        sketch.pos = {int(k): int(n) for k, n in data.get("pos", {}).items()}
        sketch.neg = {int(k): int(n) for k, n in data.get("neg", {}).items()}
        return sketch

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<QuantileSketch n={self.count} alpha={self.alpha} "
                f"buckets={len(self.pos) + len(self.neg)}>")


class TimeSeries:
    """A bounded ``(sim_time, value)`` sequence with stride decimation.

    Offered points are recorded every ``stride``-th time; when the
    retained list reaches ``max_points`` it is thinned to every 2nd
    point and the stride doubles.  The retained set is a pure function
    of the offered sequence, so two identical runs produce identical
    series regardless of how long they are.
    """

    __slots__ = ("name", "max_points", "points", "stride", "offered")

    def __init__(self, name: str, max_points: int = 1024) -> None:
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        self.name = name
        self.max_points = max_points
        self.points: List[Tuple[float, float]] = []
        self.stride = 1
        self.offered = 0

    def record(self, time: float, value: float) -> None:
        take = self.offered % self.stride == 0
        self.offered += 1
        if not take:
            return
        self.points.append((time, value))
        if len(self.points) >= self.max_points:
            del self.points[1::2]  # keep every 2nd point (0, 2, 4, ...)
            self.stride *= 2

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def to_list(self) -> List[List[float]]:
        return [[t, v] for t, v in self.points]

    def __len__(self) -> int:
        return len(self.points)


class Counter:
    """A monotonically increasing count (float-valued: CPU-seconds etc.)."""

    __slots__ = ("name", "value", "_telemetry", "_series")

    def __init__(self, name: str, telemetry: "Telemetry",
                 series: Optional[TimeSeries] = None) -> None:
        self.name = name
        self.value: float = 0.0
        self._telemetry = telemetry
        self._series = series

    def inc(self, n: float = 1.0) -> None:
        self.value += n
        if self._series is not None:
            self._series.record(self._telemetry.env.now, self.value)


class Gauge:
    """A point-in-time level (queue depth, backlog bytes, busy slots)."""

    __slots__ = ("name", "value", "minimum", "maximum", "updates",
                 "_telemetry", "_series")

    def __init__(self, name: str, telemetry: "Telemetry",
                 series: Optional[TimeSeries] = None) -> None:
        self.name = name
        self.value: float = 0.0
        self.minimum: float = 0.0
        self.maximum: float = 0.0
        self.updates = 0
        self._telemetry = telemetry
        self._series = series

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self._series is not None:
            self._series.record(self._telemetry.env.now, value)

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.set(self.value - n)


class Histogram:
    """Observed values, folded into one :class:`QuantileSketch`.

    The sketch is all the state there is — count, total and extrema are
    exact, percentiles are within its relative-error bound at every
    stream length — so a registry's own snapshot and any merge of
    snapshots report the same numbers for the same stream.
    """

    __slots__ = ("name", "sketch")

    def __init__(self, name: str) -> None:
        self.name = name
        #: The mergeable summary of *every* observation.
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.sketch.observe(value)

    def percentile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def to_dict(self) -> Dict[str, Any]:
        """The snapshot entry: a pure function of the sketch."""
        sketch, n = self.sketch, self.sketch.count
        return {
            "count": n,
            "total": sketch.total,
            "mean": sketch.total / n if n else None,
            "min": sketch.minimum if n else None,
            "max": sketch.maximum if n else None,
            "p50": sketch.quantile(50) if n else None,
            "p95": sketch.quantile(95) if n else None,
            "sketch": sketch.to_dict() if n else None,
        }


class Telemetry:
    """The per-environment metrics registry (the ``env.telemetry`` hook).

    Install with ``Telemetry(env).install()``; metric objects are created
    lazily by name on first use and are stable thereafter::

        t = Telemetry(env).install()
        ... run ...
        snap = t.snapshot()
    """

    def __init__(self, env: "Environment", *, series: bool = True,
                 max_points: int = 1024) -> None:
        self.env = env
        self.record_series = series
        self.max_points = max_points
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- installation ----------------------------------------------------
    def install(self) -> "Telemetry":
        """Attach this registry to its environment's hook point."""
        self.env.telemetry = self
        return self

    def uninstall(self) -> None:
        if getattr(self.env, "telemetry", None) is self:
            self.env.telemetry = None

    # -- metric factories ------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            series = (TimeSeries(name, self.max_points)
                      if self.record_series else None)
            metric = self.counters[name] = Counter(name, self, series)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            series = (TimeSeries(name, self.max_points)
                      if self.record_series else None)
            metric = self.gauges[name] = Gauge(name, self, series)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    # -- snapshots -------------------------------------------------------
    def series(self) -> Dict[str, TimeSeries]:
        """Every live series (counters + gauges), sorted by metric name."""
        out: Dict[str, TimeSeries] = {}
        for name in sorted(self.counters):
            s = self.counters[name]._series
            if s is not None and s.points:
                out[name] = s
        for name in sorted(self.gauges):
            s = self.gauges[name]._series
            if s is not None and s.points:
                out[name] = s
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able, deterministically ordered state of every metric."""
        return {
            "counters": {name: self.counters[name].value
                         for name in sorted(self.counters)},
            "gauges": {name: {
                "last": self.gauges[name].value,
                "min": self.gauges[name].minimum,
                "max": self.gauges[name].maximum,
                "updates": self.gauges[name].updates,
            } for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].to_dict()
                           for name in sorted(self.histograms)},
            "series": {name: ts.to_list()
                       for name, ts in self.series().items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Telemetry counters={len(self.counters)} "
                f"gauges={len(self.gauges)} "
                f"histograms={len(self.histograms)}>")


# -- snapshot algebra ----------------------------------------------------
def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold snapshots (in the given order) into one aggregate snapshot.

    * counters sum;
    * gauges keep the *last* observed level plus global min/max and the
      summed update count;
    * histograms merge their :class:`QuantileSketch` states *exactly*
      (bucket counts add) and are re-derived from the merged sketch the
      way a registry derives its own entry — so the merge of one
      snapshot is that snapshot, and ``p50``/``p95`` do not depend on
      how a stream was split;
    * series are concatenated in fold order (times may restart between
      segments — each segment is one independent cell/environment).

    The fold is order-dependent by design: callers pass snapshots in
    canonical plan order, so serial, parallel, and cache-served runs
    merge identically.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, Any]] = {}
    histograms: Dict[str, Histogram] = {}
    series: Dict[str, List[List[float]]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, g in snap.get("gauges", {}).items():
            agg = gauges.get(name)
            if agg is None:
                gauges[name] = dict(g)
            else:
                agg["last"] = g["last"]
                agg["min"] = min(agg["min"], g["min"])
                agg["max"] = max(agg["max"], g["max"])
                agg["updates"] += g["updates"]
        for name, h in snap.get("histograms", {}).items():
            merged = histograms.setdefault(name, Histogram(name))
            if h["count"]:
                merged.sketch.merge(QuantileSketch.from_dict(h["sketch"]))
        for name, points in snap.get("series", {}).items():
            series.setdefault(name, []).extend(
                [list(p) for p in points])
    # Deterministic key order regardless of fold interleaving.
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k].to_dict()
                       for k in sorted(histograms)},
        "series": {k: series[k] for k in sorted(series)},
    }


@contextmanager
def telemetry_scope(**kwargs: Any) -> Iterator[List[Telemetry]]:
    """Auto-install a registry on every Environment built in this scope.

    Yields the (initially empty) list of registries, appended in
    environment-construction order — deterministic for a deterministic
    build.  Used by the sharded runner so experiment cells need no
    telemetry plumbing of their own::

        with telemetry_scope() as registries:
            payload = spec.run_cell(config, key)
        snapshot = merge_snapshots([t.snapshot() for t in registries])
    """
    from ..sim.environment import Environment

    created: List[Telemetry] = []

    def factory(env: "Environment") -> Telemetry:
        telemetry = Telemetry(env, **kwargs)
        created.append(telemetry)
        return telemetry

    previous = Environment.telemetry_factory
    Environment.telemetry_factory = factory  # simlint: disable=flow-worker-purity -- restored in finally; the write is scoped to this worker's own cell, never leaks across cells
    try:
        yield created
    finally:
        Environment.telemetry_factory = previous  # simlint: disable=flow-worker-purity -- restores the pre-scope factory (cell-local by construction)


def scope_snapshot(registries: Sequence[Telemetry]) -> Dict[str, Any]:
    """Merge the registries collected by one :func:`telemetry_scope`."""
    return merge_snapshots([t.snapshot() for t in registries])
