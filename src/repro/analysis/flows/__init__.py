"""simlint flows — the whole-program worker-purity pass.

The per-file rule engine (:mod:`repro.analysis.engine`) sees one AST at
a time; worker purity is *cross-module*: module state mutated somewhere
down the call path behind a process-pool worker entry point.

``flows`` parses the whole tree once into per-module summaries
(:mod:`.graph`), links them into a :class:`~.graph.ProgramGraph`, and
runs :class:`~.purity.WorkerPurityRule` (``flow-worker-purity``) over
the graph.  The layer map is not a lint rule: a tier-1 test
(``tests/test_import_boundary.py``) checks it over each module's import
closure.

Entry point: :func:`run_flows` (wired to ``repro lint --flows``).
"""

from __future__ import annotations

from .engine import FlowReport, run_flows
from .graph import FlowStats, ModuleSummary, ProgramGraph, build_graph
from .purity import WorkerPurityRule

__all__ = [
    "FlowReport",
    "FlowStats",
    "ModuleSummary",
    "ProgramGraph",
    "WorkerPurityRule",
    "build_graph",
    "run_flows",
]
