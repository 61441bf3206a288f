"""ASCII timeline (Gantt) rendering of a traced broker run.

Turns a :class:`~repro.obs.Tracer`'s job events into a per-job lifecycle
chart: submission, selection, agent planting, start, and completion
markers on a shared time axis — the quickest way to *see* what a scheduling scenario
did (the multiprogramming demo's "interactive job starts instantly on a
busy grid" is one glance here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..obs import Tracer

#: Marker glyphs by trace kind (first match wins when cells collide).
MARKERS = [
    ("failed", "!"),
    ("cancel", "x"),
    ("agent-died-resubmit", "R"),
    ("resubmit", "r"),
    ("agent-ready", "A"),
    ("selected", "s"),
    ("broker-queued", "q"),
    ("output-retrieved", "o"),
]


@dataclass
class JobLane:
    job_id: str
    submitted_at: float
    finished_at: Optional[float] = None
    events: List[Tuple[float, str]] = field(default_factory=list)


def _collect_lanes(tracer: Tracer) -> List[JobLane]:
    lanes: Dict[str, JobLane] = {}
    for record in tracer.job_events:
        job_id = record.data["job"]
        if record.kind == "submit":
            lanes[job_id] = JobLane(job_id, record.time)
            continue
        lane = lanes.get(job_id)
        if lane is None:
            continue
        if record.kind == "finished":
            lane.finished_at = record.time
        else:
            lane.events.append((record.time, record.kind))
    return list(lanes.values())


def render_timeline(tracer: Tracer, width: int = 72,
                    max_jobs: int = 40) -> str:
    """Render one lane per job on a shared time axis (the world must be
    built with ``trace=True``: an untraced broker records nothing).

    Legend: ``[`` submit … ``]`` finish, ``=`` running window, plus the
    kind markers (s selection done, A agent ready, r/R resubmissions,
    q broker-queued, o output retrieved, x cancelled, ! failed).
    """
    lanes = _collect_lanes(tracer)
    if not lanes:
        return "(empty trace)"
    shown = lanes[:max_jobs]
    t_min = min(lane.submitted_at for lane in shown)
    t_max = max((lane.finished_at if lane.finished_at is not None
                 else max((t for t, _ in lane.events),
                          default=lane.submitted_at))
                for lane in shown)
    if t_max - t_min < 1e-9:
        t_max = t_min + 1.0
    span = t_max - t_min

    def column(time: float) -> int:
        fraction = (time - t_min) / span
        return min(int(fraction * (width - 1)), width - 1)

    label_width = max(len(lane.job_id) for lane in shown) + 1
    out: List[str] = [
        f"Timeline: {len(shown)} jobs, t=[{t_min:.1f}s .. {t_max:.1f}s]"
        + (f" ({len(lanes) - len(shown)} more not shown)"
           if len(lanes) > len(shown) else "")
    ]
    for lane in shown:
        row = [" "] * width
        start = column(lane.submitted_at)
        end = column(lane.finished_at) if lane.finished_at is not None \
            else width - 1
        for cell in range(start, end + 1):
            row[cell] = "="
        row[start] = "["
        if lane.finished_at is not None:
            row[end] = "]"
        for time, kind in lane.events:
            for prefix, glyph in MARKERS:
                if kind.startswith(prefix):
                    row[column(time)] = glyph
                    break
        out.append(f"{lane.job_id.rjust(label_width)} |{''.join(row)}|")
    out.append(" " * (label_width + 1)
               + f"+{'-' * width}+")
    out.append(" " * (label_width + 2)
               + "[ submit  = active  ] done  s selected  A agent-ready  "
                 "q queued  r/R resubmit  o output  x cancel  ! failed")
    return "\n".join(out)
