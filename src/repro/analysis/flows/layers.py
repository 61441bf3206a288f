"""Layer-DAG policy as data, plus the import-topology flow rules.

One :class:`LayerMap` declaration (:data:`REPRO_LAYERS`) replaces the
three hand-written layering rule classes that accreted over PR 4/7/8
(``compiled-lane-purity``, ``obs-direct-import``, ``broker-factory``).
Policy changes are now edits to this table, not new AST visitors.

Ranks follow the *actual* dependency DAG of the tree (verified by the
``flow-layer-dag`` gate itself), refining the coarse sketch in the
issue: the substrate kernel at the bottom; leaf utility packages next;
the grid fabric; scheduling policy; the broker core and workload
synthesis; the runner; experiments and the CLI on top.  ``repro.obs``
is deliberately *unranked* — it may be imported from anywhere (the
zero-cost hook contract) but must not import the packages it observes,
which is the separate ``flow-obs-isolation`` rule.

Only **eager** imports (module level, outside ``TYPE_CHECKING``)
constitute DAG edges.  Function-level imports are the sanctioned
escape hatch for upward calls (e.g. ``experiments/cli.py`` lazily
importing the analysis CLI) and stay exempt, consistent with the
compiled-lane philosophy: what matters is what a bare ``import
repro.sim`` drags in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..engine import Finding
from .base import FlowRule
from .graph import ModuleSummary, ProgramGraph

__all__ = [
    "REPRO_LAYERS",
    "LayerMap",
    "LayerDagRule",
    "ObsIsolationRule",
    "SimPurityRule",
    "BrokerFactoryRule",
]


@dataclass(frozen=True)
class LayerMap:
    """Declarative layering policy for one project namespace.

    ``ranks`` maps package prefixes (relative to ``namespace``) to an
    integer layer; an eager import from rank *r* may only reach ranks
    ``<= r``.  ``isolated`` packages are importable from anywhere but
    may not eagerly import any ``observes`` package.  ``exempt``
    prefixes opt out of ranking entirely (the analysis layer itself,
    package dunder roots).  ``purity`` pins a package to an import
    allowlist of external top-level modules (the compiled lane).
    ``factory_only`` restricts direct construction of the named classes
    to below the listed packages, steering drivers through the factory.
    """

    namespace: str
    ranks: Mapping[str, int]
    isolated: Tuple[str, ...] = ()
    observes: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()
    purity: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    factory_only: Mapping[str, Tuple[str, ...]] = field(
        default_factory=dict)

    def _subpackage(self, module: str) -> Optional[str]:
        prefix = self.namespace + "."
        if module == self.namespace:
            return ""
        if not module.startswith(prefix):
            return None
        return module[len(prefix):]

    def rank_of(self, module: str) -> Optional[int]:
        """Layer rank of a dotted module, or None when unranked."""
        sub = self._subpackage(module)
        if sub is None or sub == "":
            return None
        for prefix in self.exempt:
            if sub == prefix or sub.startswith(prefix + "."):
                return None
        for prefix in self.isolated:
            if sub == prefix or sub.startswith(prefix + "."):
                return None
        best: Optional[int] = None
        best_len = -1
        for prefix, rank in self.ranks.items():
            if sub == prefix or sub.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = rank, len(prefix)
        return best

    def is_isolated(self, module: str) -> bool:
        sub = self._subpackage(module)
        if not sub:
            return False
        return any(sub == p or sub.startswith(p + ".")
                   for p in self.isolated)

    def is_observed(self, module: str) -> bool:
        sub = self._subpackage(module)
        if not sub:
            return False
        return any(sub == p or sub.startswith(p + ".")
                   for p in self.observes)

    def purity_allowlist(self, module: str) -> Optional[Tuple[str, ...]]:
        sub = self._subpackage(module)
        if not sub:
            return None
        for prefix, allow in self.purity.items():
            if sub == prefix or sub.startswith(prefix + "."):
                return allow
        return None

    def in_package(self, module: str, prefix: str) -> bool:
        sub = self._subpackage(module)
        if sub is None:
            return False
        return sub == prefix or sub.startswith(prefix + ".")


#: The repro tree's layering contract.  Edit this table — not a rule
#: class — to change policy.  Ranks: lower = deeper.  A module may
#: eagerly import only modules of rank <= its own.
REPRO_LAYERS = LayerMap(
    namespace="repro",
    ranks={
        # 0 — the substrate kernel (see also its purity allowlist).
        "sim": 0,
        # 1 — leaf utilities: config codec, calibration, JDL, net model,
        #     metrics aggregation.
        "codec": 1,
        "calibration": 1,
        "jdl": 1,
        "net": 1,
        "metrics": 1,
        # 2 — the grid fabric and result streaming.
        "grid": 2,
        "streaming": 2,
        "interposition": 2,
        # 3 — scheduling policy stacks.
        "multiprog": 3,
        "baselines": 3,
        # 4 — broker core and workload synthesis.
        "core": 4,
        "workloads": 4,
        # 5 — the runner (cache/engine) and scenario facade.
        "runner": 5,
        "scenario": 5,
        # 6 — the top: experiments and the CLI.
        "experiments": 6,
        "cli": 6,
    },
    isolated=("obs",),
    observes=("sim", "core", "grid", "streaming", "multiprog", "net"),
    exempt=("analysis",),
    purity={
        # The compiled-lane contract from PR 8: repro.sim must stay
        # self-contained so the C lane / future compiled lanes see no
        # foreign imports at module level.
        "sim": ("__future__", "collections", "dataclasses", "enum",
                "functools", "heapq", "itertools", "math", "os",
                "types", "typing", "warnings", "weakref", "numpy"),
    },
    factory_only={
        # Driver layers must build brokers via core.protocol.make_broker
        # so broker_mode stays data, not code.
        "CrossBroker": ("experiments", "examples"),
        "PullBroker": ("experiments", "examples"),
        "DataAwareBroker": ("experiments", "examples"),
        # Drivers reach steering through the controller that
        # Scenario.build binds (env.control.world), never by wrapping a
        # handle themselves — the adapter is the control bridge's world
        # half, not a driver convenience.
        "SteeringAdapter": ("experiments", "examples"),
    },
)


def _eager_targets(summary: ModuleSummary,
                   namespace: str) -> Iterable[Tuple[str, int]]:
    """Distinct eager in-namespace import targets with first line."""
    seen: Dict[str, int] = {}
    for edge in summary.imports:
        if edge.lazy:
            continue
        target = edge.target
        if not (target == namespace
                or target.startswith(namespace + ".")):
            continue
        if target not in seen:
            seen[target] = edge.line
    return seen.items()


def _resolve_edge_target(graph: ProgramGraph, target: str) -> str:
    """Map an import target onto a module in the universe.

    ``from repro.core import broker`` records target ``repro.core`` with
    a symbol; the module-level edge we care about is the longest prefix
    of ``target`` present in the graph (falling back to ``target``).
    """
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        candidate = ".".join(parts[:i])
        if graph.has_module(candidate):
            return candidate
    return target


class LayerDagRule(FlowRule):
    """Eager imports must respect the declared layer DAG.

    A ranked module may eagerly import only modules of equal or lower
    rank.  Edges are followed through *unranked* intermediates (an
    ``__init__`` facade, a helper module) so the finding reports the
    full offending chain — ``repro.grid.site -> repro.grid.util ->
    repro.runner.engine`` — not just the first hop.  Once a chain
    reaches another *ranked* module, that module's own imports are its
    own obligation and traversal stops.
    """

    id = "flow-layer-dag"
    category = "layering"

    def __init__(self, layers: LayerMap) -> None:
        self.layers = layers

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        for summary in graph.summaries():
            rank = self.layers.rank_of(summary.module)
            if rank is None:
                continue
            yield from self._check_module(graph, summary, rank)

    def _check_module(self, graph: ProgramGraph, summary: ModuleSummary,
                      rank: int) -> Iterable[Finding]:
        # BFS from each eager edge, traversing only unranked modules in
        # the universe; report the shortest chain per offender.
        reported: set = set()
        for target, line in sorted(_eager_targets(
                summary, self.layers.namespace),
                key=lambda item: (item[1], item[0])):
            start = _resolve_edge_target(graph, target)
            queue: List[List[str]] = [[start]]
            visited = {start}
            while queue:
                chain = queue.pop(0)
                module = chain[-1]
                target_rank = self.layers.rank_of(module)
                if target_rank is not None:
                    if target_rank > rank and module not in reported:
                        reported.add(module)
                        arrow = " -> ".join([summary.module] + chain)
                        yield self.finding(
                            summary, line,
                            f"layer violation: {summary.module} "
                            f"(layer {rank}) eagerly reaches {module} "
                            f"(layer {target_rank}) via {arrow}")
                    continue  # ranked: its imports are its own problem
                next_summary = graph.module(module)
                if next_summary is None or len(chain) > 8:
                    continue
                for nxt, _ in sorted(_eager_targets(
                        next_summary, self.layers.namespace)):
                    resolved = _resolve_edge_target(graph, nxt)
                    if resolved not in visited:
                        visited.add(resolved)
                        queue.append(chain + [resolved])


class ObsIsolationRule(FlowRule):
    """Observed layers must not eagerly import the observer.

    ``repro.obs`` hooks into the kernel through zero-cost attributes;
    an eager import in the other direction would make observability a
    load-bearing dependency of the thing it observes.  (Replaces the
    per-file ``obs-direct-import`` rule; function-level imports — e.g.
    the runner engine attaching telemetry — remain sanctioned.)
    """

    id = "flow-obs-isolation"
    category = "layering"

    def __init__(self, layers: LayerMap) -> None:
        self.layers = layers

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        iso_prefixes = tuple(
            f"{self.layers.namespace}.{p}" for p in self.layers.isolated)
        for summary in graph.summaries():
            if not self.layers.is_observed(summary.module):
                continue
            for edge in summary.imports:
                if edge.lazy:
                    continue
                if any(edge.target == p or edge.target.startswith(p + ".")
                       for p in iso_prefixes):
                    yield self.finding(
                        summary, edge.line,
                        f"observed module {summary.module} eagerly "
                        f"imports {edge.target}; observability must "
                        "attach via hooks, not imports (use a "
                        "function-level import if unavoidable)")


class SimPurityRule(FlowRule):
    """The kernel package imports only its substrate allowlist.

    The compiled lane (PR 8) requires ``repro.sim`` to be loadable with
    nothing but the standard substrate present; any new module-level
    dependency silently breaks that contract.  (Replaces the per-file
    ``compiled-lane-purity`` rule.)  Intra-package relative imports and
    the package's own private extension modules stay allowed.
    """

    id = "flow-sim-purity"
    category = "layering"

    def __init__(self, layers: LayerMap) -> None:
        self.layers = layers

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        ns = self.layers.namespace
        for summary in graph.summaries():
            allow = self.layers.purity_allowlist(summary.module)
            if allow is None:
                continue
            pkg_prefix = summary.module.split(".")[:2]  # repro.sim
            own = ".".join(pkg_prefix)
            for edge in summary.imports:
                if edge.lazy:
                    continue
                top = edge.target.split(".")[0]
                if edge.target == own or edge.target.startswith(
                        own + "."):
                    continue
                if top == ns:
                    yield self.finding(
                        summary, edge.line,
                        f"kernel purity: {summary.module} imports "
                        f"{edge.target}; the compiled lane requires "
                        f"{own} to be self-contained")
                elif top not in allow:
                    yield self.finding(
                        summary, edge.line,
                        f"kernel purity: {summary.module} imports "
                        f"{edge.target!r} outside the substrate "
                        f"allowlist for {own}")


class BrokerFactoryRule(FlowRule):
    """Driver layers construct brokers via ``make_broker`` only.

    Direct ``CrossBroker(...)``-style construction in experiments or
    examples hard-codes a scheduling architecture that is supposed to
    be selected by ``Scenario(broker_mode=...)``.  (Replaces the
    per-file ``broker-factory`` rule.)
    """

    id = "flow-broker-factory"
    category = "layering"

    def __init__(self, layers: LayerMap) -> None:
        self.layers = layers

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        restricted = self.layers.factory_only
        if not restricted:
            return
        for summary in graph.summaries():
            packages = {
                prefix
                for prefixes in restricted.values()
                for prefix in prefixes
                if self.layers.in_package(summary.module, prefix)
            }
            if not packages:
                continue
            for fn in summary.all_functions():
                for call in fn.calls:
                    leaf = call.callee.split(".")[-1]
                    if leaf in restricted:
                        yield self.finding(
                            summary, call.line,
                            f"direct {leaf}(...) construction in "
                            f"{summary.module}; use make_broker() / "
                            "Scenario(broker_mode=...) so the "
                            "architecture stays configuration")
