"""Measurement probes for simulations.

:func:`trace_span` and :func:`trace_event` are how an instrumented layer
records on whatever tracer the environment carries.
"""

from __future__ import annotations

import contextlib
from typing import Any, ContextManager

_NO_SPAN = contextlib.nullcontext()


def trace_span(env: Any, name: str, **meta: Any) -> ContextManager[Any]:
    """``with trace_span(env, "match", job=...) as span:`` — a span on the
    environment's tracer, closed ``ok`` or (when the block raises)
    ``error``; a no-op yielding ``None`` when no tracer is installed.

    Instrumented layers call this instead of importing ``repro.obs``.
    """
    tr = env.tracer
    return _NO_SPAN if tr is None else tr.span(name, **meta)


def trace_event(env: Any, kind: str, **data: Any) -> None:
    """Record one event on the environment's tracer, if there is one."""
    tr = env.tracer
    if tr is not None:
        tr.event(kind, **data)
