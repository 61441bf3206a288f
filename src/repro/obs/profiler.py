"""Kernel wall-clock profiler: where does *real* time go?

``bench/run.py``'s ``kernel_micro`` tells you the kernel got slower;
this profiler tells you *why*.  ``Environment(profile=True)`` (or the :func:`profile_scope`
class-default context manager) attaches a :class:`KernelProfiler` and
routes ``run()`` through the kernel's observed loop, which attributes
``time.perf_counter()`` deltas to *sites*:

* ``process:<generator name>`` — a suspended process resumed (the site
  is the generator function's code name, so cardinality stays bounded
  no matter how many jobs run);
* ``callback:<qualname>``      — a plain callback invoked;
* ``timer:<name>``             — a timer shot popped (fires, deferrals,
  and tombstone collection all count: lazy deletion is kernel work too).

Wall-clock readings never feed back into simulation state — the
profiler is observation-only, and the observed loop preserves the exact
event order of the fast loop (it mirrors ``Environment.step()``
semantics).  Profiled runs are slower (one ``perf_counter`` pair per
callback); that is the price of attribution and the reason the flag is
opt-in.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

__all__ = ["KernelProfiler", "SiteStats", "profile_scope"]


class SiteStats:
    """Exact wall-clock aggregates for one attribution site."""

    __slots__ = ("site", "count", "total", "maximum")

    def __init__(self, site: str) -> None:
        self.site = site
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed > self.maximum:
            self.maximum = elapsed

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "count": self.count, "total_s": self.total,
                "mean_s": self.mean, "max_s": self.maximum}


class KernelProfiler:
    """Attributes real time to process/callback/timer sites.

    The clock is ``time.perf_counter`` — monotonic wall time, never the
    simulation clock, and never read *by* the simulation.
    """

    clock = staticmethod(perf_counter)

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.sites: Dict[str, SiteStats] = {}
        #: Events processed while profiling (callback invocations).
        self.callbacks = 0
        #: Wall seconds spent inside ``run()`` (loop overhead included).
        self.run_wall = 0.0

    # -- recording (called from Environment._drain_observed) -------------
    def record(self, site: str, t0: float) -> None:
        elapsed = perf_counter() - t0
        stats = self.sites.get(site)
        if stats is None:
            stats = self.sites[site] = SiteStats(site)
        stats.add(elapsed)
        self.callbacks += 1

    @staticmethod
    def site_of(callback: Any) -> str:
        """A bounded-cardinality attribution key for a callback."""
        generator = getattr(callback, "_generator", None)
        if generator is not None:  # a Process: attribute to its code site
            code = getattr(generator, "gi_code", None)
            if code is not None:
                return f"process:{code.co_name}"
            return f"process:{type(callback).__name__}"
        func = getattr(callback, "__func__", callback)
        name = getattr(func, "__qualname__", None) \
            or getattr(func, "__name__", None) \
            or type(callback).__name__
        return f"callback:{name}"

    @staticmethod
    def timer_site(timer: Any) -> str:
        name = getattr(timer, "name", None)
        return f"timer:{name}" if name else "timer:<anonymous>"

    # -- reporting -------------------------------------------------------
    def rows(self) -> List[SiteStats]:
        """Sites sorted by total wall time (descending), name-stable."""
        return sorted(self.sites.values(),
                      key=lambda s: (-s.total, s.site))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "callbacks": self.callbacks,
            "run_wall_s": self.run_wall,
            "sites": [s.to_dict() for s in self.rows()],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<KernelProfiler sites={len(self.sites)} "
                f"callbacks={self.callbacks} wall={self.run_wall:.3f}s>")


class profile_scope:
    """Flip ``Environment.default_profile`` for a ``with`` block, so every
    environment built inside gets a profiler without threading the flag
    through world builders (mirrors ``repro.analysis.sanitize_all``)."""

    def __init__(self) -> None:
        self._previous = False

    def __enter__(self) -> "profile_scope":
        from ..sim.environment import Environment

        self._previous = Environment.default_profile
        Environment.default_profile = True
        return self

    def __exit__(self, *exc: Any) -> None:
        from ..sim.environment import Environment

        Environment.default_profile = self._previous
