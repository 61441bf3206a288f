"""The flows pass runner.

:func:`run_flows` is the whole pass: collect files, build the program
graph, run :class:`~.purity.WorkerPurityRule` over it, and honour the
same ``# simlint: disable`` pragmas as the per-file engine.  A justified
pragma (kept honest by ``repro lint --audit-suppressions``) is the one
way to accept a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..engine import Finding, collect_files
from .graph import FlowStats, build_graph
from .purity import WorkerPurityRule

__all__ = ["FlowReport", "run_flows"]


@dataclass
class FlowReport:
    """Everything one ``--flows`` run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stats: FlowStats = field(default_factory=FlowStats)


def run_flows(paths: Iterable[str], *,
              root: Optional[str] = None) -> FlowReport:
    """Run the whole-program pass over every ``.py`` under ``paths``."""
    graph, stats = build_graph(collect_files(paths), root=root)
    report = FlowReport(stats=stats)

    raw: List[Finding] = []
    suppressions_by_path = {}
    for summary in graph.summaries():
        suppressions_by_path[summary.relpath] = summary.suppressions
        if summary.syntax_error is not None:
            line, col, msg = summary.syntax_error
            raw.append(Finding(
                rule="syntax-error", category="parse",
                path=summary.relpath, line=line, col=col,
                message=f"file does not parse: {msg}"))
    raw.extend(WorkerPurityRule().check(graph))

    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.col,
                                              f.rule, f.message)):
        sup = suppressions_by_path.get(finding.path)
        if sup is not None and sup.active(finding.rule, finding.line):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report
