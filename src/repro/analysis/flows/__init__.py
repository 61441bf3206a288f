"""simlint flows — whole-program import/call-graph analysis.

The per-file rule engine (:mod:`repro.analysis.engine`) sees one AST at
a time; two contracts are *cross-module* and need a program graph: an
import chain that sneaks an upper layer under a lower one, and module
state mutated behind a process-pool worker entry point.

``flows`` parses the whole tree once into per-module summaries
(:mod:`.graph`), links them into a :class:`~.graph.ProgramGraph`, and
runs the flow rules over the graph:

========================  ==============================================
``flow-layer-dag``        the declared layer map
                          (:data:`~.layers.REPRO_LAYERS`): rank
                          violations reported with the full import
                          chain, observed layers importing
                          ``repro.obs``, the kernel's module-level
                          import allowlist (compiled lane), and driver
                          code building brokers without ``make_broker``
``flow-worker-purity``    no module-global writes reachable from
                          process-pool worker entry points
========================  ==============================================

Entry point: :func:`run_flows` (wired to ``repro lint --flows``).
"""

from __future__ import annotations

from .engine import (FLOW_RULES, FlowReport, FlowRule, flow_rules_by_id,
                     run_flows)
from .graph import FlowStats, ModuleSummary, ProgramGraph, build_graph
from .layers import REPRO_LAYERS, LayerMap

__all__ = [
    "FLOW_RULES",
    "FlowReport",
    "FlowRule",
    "FlowStats",
    "LayerMap",
    "ModuleSummary",
    "ProgramGraph",
    "REPRO_LAYERS",
    "build_graph",
    "flow_rules_by_id",
    "run_flows",
]
