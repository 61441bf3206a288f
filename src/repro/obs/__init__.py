"""Observability substrate: spans, sim-time metrics, profiler, exporters.

``repro.obs`` is a side library (like ``repro.metrics``) usable from any
layer.  The instrumented layers — broker, streaming, multiprogramming,
grid, net — never import it; they only read the ``Environment.tracer``
and ``Environment.telemetry`` hooks, which are ``None`` unless a
:class:`Tracer` / :class:`Telemetry` has been installed.  That keeps
observability strictly opt-in and zero-cost for uninstrumented runs
(``tests/test_import_boundary.py`` checks that no observed module's
import closure reaches ``repro.obs``).

Typical use::

    from repro.obs import Telemetry, Tracer

    tracer = Tracer(env).install()        # sets env.tracer
    telemetry = Telemetry(env).install()  # sets env.telemetry
    ... run the simulation ...
    from repro.metrics import phase_breakdown_table, telemetry_overview
    print(phase_breakdown_table(tracer).render())
    print(telemetry_overview(telemetry.snapshot()))

For real-time attribution of kernel work, use
``Environment(profile=True)`` (or :class:`profile_scope`); for a
Chrome/Perfetto trace of spans + counter tracks, see
:func:`export_chrome_trace`.

Steering needs no hook: inside a :func:`control_scope`,
``Scenario.build`` queues a :class:`ChaosSchedule`'s verbs as kernel
events that fire first at their sim-times — what ``repro run --chaos``,
the ``chaos-drill`` experiment and ``repro serve`` drive.
"""

from .control import (
    ChaosAction,
    ChaosSchedule,
    SteerError,
    control_scope,
)
from .profiler import KernelProfiler, SiteStats, profile_scope
from .perfetto import chrome_trace, export_chrome_trace
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    QuantileSketch,
    Telemetry,
    TimeSeries,
    merge_snapshots,
    scope_snapshot,
    telemetry_scope,
)
from .tracer import PHASES, Span, TraceEvent, Tracer

__all__ = [
    "PHASES",
    "ChaosAction",
    "ChaosSchedule",
    "SteerError",
    "control_scope",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "QuantileSketch",
    "SiteStats",
    "Span",
    "Telemetry",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "export_chrome_trace",
    "merge_snapshots",
    "profile_scope",
    "scope_snapshot",
    "telemetry_scope",
]
