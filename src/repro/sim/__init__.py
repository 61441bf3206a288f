"""Deterministic discrete-event simulation kernel.

A small, self-contained SimPy-style engine: generator-based processes,
one-shot events, timeouts, interrupts, condition events, counted/priority
resources, object stores, seeded random streams, and measurement probes.
All higher layers of the reproduction (network, grid, broker, streaming,
multiprogramming) are built exclusively on this kernel.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3.0
"""

from .environment import Environment, Infinity, collector_paused
from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    NORMAL,
    PENDING,
    Timeout,
    URGENT,
)
from .monitor import SummaryStats, trace_event, trace_span
from .process import Process
from .resources import Container, PriorityRequest, PriorityResource, Request, Resource
from .rng import RandomStreams
from .store import FilterStore, Store
from .timers import Timer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "EmptySchedule",
    "Environment",
    "Event",
    "FilterStore",
    "Infinity",
    "Interrupt",
    "NORMAL",
    "PENDING",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "SummaryStats",
    "Timeout",
    "Timer",
    "URGENT",
    "collector_paused",
    "trace_event",
    "trace_span",
]
