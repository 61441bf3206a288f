"""The flow-rule registry and runner.

:func:`run_flows` is the whole pass: collect files, build the program
graph, run every flow rule over it, and honour the same ``# simlint:
disable`` pragmas as the per-file engine.  A justified pragma (kept
honest by ``repro lint --audit-suppressions``) is the one way to accept
a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..engine import Finding, collect_files
from .base import FlowRule
from .graph import FlowStats, build_graph
from .layers import REPRO_LAYERS, LayerDagRule
from .purity import WorkerPurityRule

__all__ = [
    "FLOW_RULES",
    "FlowReport",
    "FlowRule",
    "flow_rules_by_id",
    "run_flows",
]

#: Every flow rule, in documentation order.
FLOW_RULES: Tuple[FlowRule, ...] = (
    LayerDagRule(REPRO_LAYERS),
    WorkerPurityRule(),
)


def flow_rules_by_id(ids: Iterable[str]) -> List[FlowRule]:
    """Resolve flow-rule ids; unknown ids raise listing the valid set."""
    by_id = {rule.id: rule for rule in FLOW_RULES}
    out: List[FlowRule] = []
    for rule_id in ids:
        if rule_id not in by_id:
            known = ", ".join(sorted(by_id))
            raise KeyError(
                f"unknown flow rule {rule_id!r}; known rules: {known}")
        out.append(by_id[rule_id])
    return out


@dataclass
class FlowReport:
    """Everything one ``--flows`` run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stats: FlowStats = field(default_factory=FlowStats)


def run_flows(paths: Iterable[str], *,
              root: Optional[str] = None,
              rules: Optional[Sequence[FlowRule]] = None) -> FlowReport:
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
    for rule in (rules if rules is not None else FLOW_RULES):
        raw.extend(rule.check(graph))

    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.col,
                                              f.rule, f.message)):
        sup = suppressions_by_path.get(finding.path)
        if sup is not None and sup.active(finding.rule, finding.line):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report
