"""Measurement probes for simulations.

:class:`SummaryStats` is the numpy-backed summary every table and figure
series is built from; :func:`trace_span` and :func:`trace_event` are how
an instrumented layer records on whatever tracer the environment carries.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, ContextManager, Iterable

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Summary of a sample set (times are seconds unless stated otherwise)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @staticmethod
    def of(values: "Iterable[float]") -> "SummaryStats":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            nan = float("nan")
            return SummaryStats(0, nan, nan, nan, nan, nan, nan)
        return SummaryStats(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
        )

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.6g} std={self.std:.3g} "
                f"min={self.minimum:.6g} p50={self.p50:.6g} "
                f"p95={self.p95:.6g} max={self.maximum:.6g}")


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
