"""Shared experiment-harness plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..codec import ConfigCodec
from ..metrics import AsciiTable, Series

__all__ = ["ConfigCodec", "ShapeCheck", "ExperimentResult"]


def opt_mean(series: Series) -> Optional[float]:
    """A series' mean; ``None`` when nothing was measured."""
    return series.mean if series.values else None


def opt_cell(value: Optional[float]) -> object:
    """Table-cell form of an optional number."""
    return value if value is not None else "-"


def drive_paced_jobs(handle, jobs: Iterable, gap: float, runtime: float,
                     timer_name: str,
                     on_submit: Optional[Callable] = None) -> Generator:
    """Driver body of ``broker-modes``, ``chaos-drill`` and ``repro
    serve``: submit ``jobs`` ``gap`` sim-seconds apart as console-less
    CPU-bound work (``on_submit(record)`` sees each record), then wait
    until every one has resolved.  Returns the records.
    """
    from ..workloads import cpu_bound_app, paced_submissions

    submitted: List = []

    def submit(job) -> None:
        record = handle.submit(job, lambda rank: cpu_bound_app(runtime),
                               attach_console=False)
        if on_submit is not None:
            on_submit(record)
        submitted.append(record)

    yield from paced_submissions(
        handle.env, ((gap if i else 0.0, job) for i, job in enumerate(jobs)),
        submit, timer_name)
    for s in submitted:
        try:
            yield s.finished
        except Exception:  # noqa: BLE001  # simlint: disable=swallowed-error -- a failed submission is a measured outcome, recorded via report.success
            pass
    return submitted


@dataclass
class ShapeCheck:
    """One reproduced-shape assertion (ordering, ratio, crossover)."""

    description: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{tail}"


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    experiment_id: str
    title: str
    paper_reference: str
    tables: List[AsciiTable] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    #: Raw data for downstream consumers (benchmarks, notebooks).
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, description: str, passed: bool, detail: str = "") -> ShapeCheck:
        check = ShapeCheck(description, bool(passed), detail)
        self.checks.append(check)
        return check

    def render(self) -> str:
        out: List[str] = [f"== {self.title} ==",
                          f"(reproduces {self.paper_reference})", ""]
        for table in self.tables:
            out.append(table.render())
            out.append("")
        if self.notes:
            out.extend(self.notes)
            out.append("")
        out.append("Shape checks:")
        for check in self.checks:
            out.append("  " + check.render())
        status = "ALL SHAPE CHECKS PASSED" if self.passed \
            else "SOME SHAPE CHECKS FAILED"
        out.append(status)
        return "\n".join(out)

    def render_markdown(self) -> str:
        out: List[str] = [f"### {self.title}",
                          f"*Reproduces {self.paper_reference}.*", ""]
        for table in self.tables:
            out.append(table.render_markdown())
            out.append("")
        if self.notes:
            out.extend(self.notes)
            out.append("")
        out.append("Shape checks:")
        for check in self.checks:
            mark = "x" if check.passed else " "
            tail = f" — {check.detail}" if check.detail else ""
            out.append(f"- [{mark}] {check.description}{tail}")
        out.append("")
        return "\n".join(out)
