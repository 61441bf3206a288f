"""Span-based tracing for the job lifecycle.

The paper's end-to-end numbers (Table I, Figs. 6-8) are sums of many
middleware stages: broker matchmaking, GRAM traversal, glide-in
bootstrap, Console Agent streaming, output retrieval.  The
:class:`Tracer` attributes where that time goes: instrumented layers
record *spans* (named intervals against sim-time, nested per job) and
append *events* (the broker's job lifecycle records, plus drops,
retries, kills) into bounded ring buffers.  Every number the tracer
reports is derived from those two records: per-phase aggregates from
the spans, per-kind tallies from the events, per-job totals from the
retained spans.

Design constraints:

* **zero cost when disabled** — there is no global tracer; layers read
  ``env.tracer`` (``None`` by default) and skip all bookkeeping, so an
  untraced run allocates nothing and pays one attribute load per hook;
* **bounded memory** — raw spans are retained up to ``max_spans``, each
  phase folds its durations into one telemetry :class:`Histogram`
  (count, total and extrema exact, percentiles within the sketch's
  relative error), the event logs are ``deque``s with ``maxlen`` and the
  tallies are keyed by event kind — a heavy-traffic soak cannot grow the
  tracer unboundedly;
* **sim-time only** — all timestamps come from ``env.now``; wall-clock
  never leaks into a trace, keeping runs reproducible.

Canonical span names used by the instrumented layers (any name is
accepted; these are the lifecycle phases the ``repro trace`` breakdown
reports):

========================  ====================================================
``submit``                whole broker ``_run`` for one job
``match``                 discovery + selection (or local registry lookup)
``gram_submit``           GSI + gatekeeper + LRMS submission of one subjob
``agent_bootstrap``       glide-in transfer, boot, and registration
``dispatch``              direct broker->agent RPC dispatch
``vm_acquire``            agent-side VM slot acquisition + setup
``stream_chunk``          one chunk send on the CA<->shadow connection
``reconnect``             reliable-sender backoff wait after a send failure
``output_retrieval``      output sandbox staging back to the broker
========================  ====================================================
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

from .telemetry import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

__all__ = ["PHASES", "Span", "Tracer", "TraceEvent"]

#: The canonical lifecycle phases (documentation + ordering for reports).
PHASES: Tuple[str, ...] = (
    "submit", "match", "gram_submit", "agent_bootstrap", "dispatch",
    "vm_acquire", "stream_chunk", "reconnect", "output_retrieval",
)


class Span:
    """One named interval of simulated time, optionally nested.

    ``end`` stays ``None`` while the span is open; :meth:`Tracer.end`
    stamps it.  ``parent`` links to the enclosing open span of the same
    job, which lets exporters rebuild the per-job phase tree.
    """

    __slots__ = ("name", "start", "end", "job", "site", "status", "parent",
                 "meta")

    def __init__(self, name: str, start: float, job: Optional[str] = None,
                 site: Optional[str] = None, parent: Optional["Span"] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.job = job
        self.site = site
        self.status = "open"
        self.parent = parent
        self.meta = meta

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def elapsed(self) -> float:
        """Duration in sim-seconds (raises while the span is open)."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def depth(self) -> int:
        d, p = 0, self.parent
        while p is not None:
            d, p = d + 1, p.parent
        return d

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name, "start": self.start, "end": self.end,
            "status": self.status,
        }
        if self.end is not None:
            out["elapsed"] = self.end - self.start
        if self.job is not None:
            out["job"] = self.job
        if self.site is not None:
            out["site"] = self.site
        if self.parent is not None:
            out["parent"] = self.parent.name
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = "open" if self.end is None else f"{self.elapsed:.6g}s"
        return f"<Span {self.name} job={self.job} {tail}>"


class TraceEvent:
    """One ring-buffered record (lifecycle steps, drops, retries, ...)."""

    __slots__ = ("time", "kind", "data")

    def __init__(self, time: float, kind: str, data: Dict[str, Any]) -> None:
        self.time = time
        self.kind = kind
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, **self.data}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceEvent {self.kind}@{self.time:.6g} {self.data!r}>"


class Tracer:
    """Collects spans and ring-buffered events against sim-time.

    Install with ``env.tracer = Tracer(env)`` (or :meth:`install`);
    instrumented layers do::

        with trace_span(self.env, "gram_submit", job=job_id, site=site):
            ...                       # repro.sim.trace_span -> tr.span()
        trace_event(self.env, "selected", job=job_id, n_candidates=n)

    so a disabled run performs one ``None`` check per hook
    (the per-chunk streaming sites keep explicit ``begin``/``end`` pairs
    behind one guard: they run tens of thousands of times a second).
    """

    def __init__(self, env: "Environment", ring_size: int = 4096,
                 max_spans: int = 50_000) -> None:
        self.env = env
        #: Completed spans in end order, bounded by ``max_spans``.
        self.spans: List[Span] = []
        self.max_spans = max_spans
        #: Spans that finished past the retention bound (aggregates still
        #: counted them).
        self.dropped_spans = 0
        #: Ring-buffered events, every kind in one chronological ring.
        self.events: deque = deque(maxlen=ring_size)
        #: The job-scoped ones (``job=...``: submit, selected, finished,
        #: ...) again in a ring of their own, so a job's lifecycle is
        #: not evicted by chunk-rate ``spool``/``drop``/``retry`` noise.
        self.job_events: deque = deque(maxlen=ring_size)
        #: Exact per-kind tally of every event ever recorded (the rings
        #: forget; the tally does not).
        self.event_counts: Dict[str, int] = {}
        #: Per-phase durations and non-``ok`` span counts.
        self._agg: Dict[str, Histogram] = {}
        self._errors: Dict[str, int] = {}
        #: Per-job stacks of open spans (for nesting).
        self._open: Dict[Optional[str], List[Span]] = {}

    # -- installation ---------------------------------------------------
    def install(self) -> "Tracer":
        """Attach this tracer to its environment's hook point."""
        self.env.tracer = self
        return self

    def uninstall(self) -> None:
        if getattr(self.env, "tracer", None) is self:
            self.env.tracer = None

    # -- spans ----------------------------------------------------------
    def begin(self, name: str, job: Optional[str] = None,
              site: Optional[str] = None, **meta: Any) -> Span:
        """Open a span at the current sim-time.

        Nesting is per-job: an open span for the same job becomes the
        parent.  (Cross-process interleaving makes a single global stack
        meaningless in a DES, so job-less spans never nest.)
        """
        parent: Optional[Span] = None
        if job is not None:
            stack = self._open.get(job)
            if stack:
                parent = stack[-1]
        span = Span(name, self.env.now, job=job, site=site, parent=parent,
                    meta=meta or None)
        if job is not None:
            self._open.setdefault(job, []).append(span)
        return span

    def end(self, span: Span, status: str = "ok") -> Span:
        """Close a span, folding it into the aggregates."""
        if span.end is not None:  # idempotent: double-end is a no-op
            return span
        span.end = self.env.now
        span.status = status
        if span.job is not None:
            stack = self._open.get(span.job)
            if stack and span in stack:
                stack.remove(span)
            if not stack:
                self._open.pop(span.job, None)
        agg = self._agg.get(span.name)
        if agg is None:
            agg = self._agg[span.name] = Histogram(span.name)
        agg.observe(span.end - span.start)
        if status != "ok":
            self._errors[span.name] = self._errors.get(span.name, 0) + 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        return span

    @contextmanager
    def span(self, name: str, job: Optional[str] = None,
             site: Optional[str] = None, **meta: Any) -> Iterator[Span]:
        """Context-manager form (safe across generator yields): the span
        closes ``ok``, or ``error`` when the block raises."""
        span = self.begin(name, job=job, site=site, **meta)
        try:
            yield span
        except BaseException:
            self.end(span, status="error")
            raise
        self.end(span)

    # -- event ring -------------------------------------------------------
    def event(self, kind: str, **data: Any) -> None:
        record = TraceEvent(self.env.now, kind, data)
        self.events.append(record)
        if "job" in data:
            self.job_events.append(record)
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    # -- queries -----------------------------------------------------------
    def phase_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase aggregates, canonical phases first.

        Each entry is the phase's :class:`Histogram` entry (count, total,
        mean, min and max exact; p50/p95 the sketch's nearest-rank values)
        plus ``errors``, the spans that closed with a non-``ok`` status.
        """
        names = [name for name in PHASES if name in self._agg]
        names += [name for name in self._agg if name not in names]
        stats: Dict[str, Dict[str, Any]] = {}
        for name in names:
            entry = stats[name] = self._agg[name].to_dict()
            del entry["sketch"]
            entry["errors"] = self._errors.get(name, 0)
        return stats

    def _job_totals(self) -> Dict[str, Dict[str, float]]:
        """job -> phase -> seconds, summed over the retained spans in end
        order (exact while ``dropped_spans`` is 0)."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.job is not None:
                phases = totals.setdefault(span.job, {})
                phases[span.name] = phases.get(span.name, 0.0) + span.elapsed
        return totals

    def job_breakdown(self, job: str) -> Dict[str, float]:
        """Total seconds per phase accumulated for one job."""
        return self._job_totals().get(job, {})

    def jobs(self) -> List[str]:
        """Jobs with a retained span, in the order their first span ended."""
        return list(self._job_totals())

    def spans_of(self, name: Optional[str] = None,
                 job: Optional[str] = None) -> List[Span]:
        out: Iterable[Span] = self.spans
        if name is not None:
            out = (s for s in out if s.name == name)
        if job is not None:
            out = (s for s in out if s.job == job)
        return list(out)

    def open_spans(self) -> List[Span]:
        return [s for stack in self._open.values() for s in stack]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of everything the tracer holds.

        Tallies and per-job totals are emitted in sorted key order so two
        identical runs serialise byte-identically regardless of which
        layer recorded first (spans/events keep their chronological order).
        """
        def _sorted(mapping: Dict[str, Any]) -> Dict[str, Any]:
            return {key: mapping[key] for key in sorted(mapping)}

        return {
            "phases": self.phase_stats(),
            "event_counts": _sorted(self.event_counts),
            "jobs": {j: _sorted(p)
                     for j, p in sorted(self._job_totals().items())},
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
            "dropped_spans": self.dropped_spans,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tracer spans={len(self.spans)} "
                f"events={len(self.events)} "
                f"kinds={len(self.event_counts)}>")
