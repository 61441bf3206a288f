"""Layer-DAG policy as data, plus the one rule that enforces it.

One :class:`LayerMap` declaration (:data:`REPRO_LAYERS`) carries all
layering policy — ranks, the observer's isolation, the kernel's import
allowlist, factory-only classes — and one rule class,
:class:`LayerDagRule` (``flow-layer-dag``), reads all of it.  Policy
changes are edits to the table, not new AST visitors.

Ranks follow the *actual* dependency DAG of the tree (verified by the
``flow-layer-dag`` gate itself): the substrate kernel at the bottom;
leaf utility packages next; the grid fabric; scheduling policy; the
broker core and workload synthesis; the runner; experiments and the CLI
on top.  ``repro.obs`` is deliberately *unranked* — it may be imported
from anywhere (the zero-cost hook contract) but the packages it
observes must not import it.

Only **eager** imports (module level, outside ``TYPE_CHECKING``)
constitute DAG edges.  Function-level imports are the sanctioned
escape hatch for upward calls (e.g. ``experiments/cli.py`` lazily
importing the analysis CLI) and stay exempt, consistent with the
compiled-lane philosophy: what matters is what a bare ``import
repro.sim`` drags in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..engine import Finding
from .base import FlowRule
from .graph import ModuleSummary, ProgramGraph

__all__ = ["REPRO_LAYERS", "LayerMap", "LayerDagRule"]


def _within(name: str, prefix: str) -> bool:
    """``name`` is the dotted ``prefix`` or lives underneath it."""
    return name == prefix or name.startswith(prefix + ".")


@dataclass(frozen=True)
class LayerMap:
    """Declarative layering policy for one project namespace.

    ``ranks`` maps package prefixes (relative to ``namespace``) to an
    integer layer; an eager import from rank *r* may only reach ranks
    ``<= r``.  ``isolated`` packages are importable from anywhere but
    no ``observes`` package may eagerly import them.  ``exempt``
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
        """``module`` relative to the namespace; None when outside it
        (or the namespace root itself)."""
        if not module.startswith(self.namespace + "."):
            return None
        return module[len(self.namespace) + 1:]

    def in_package(self, module: str, *prefixes: str) -> bool:
        sub = self._subpackage(module)
        return sub is not None and any(_within(sub, p) for p in prefixes)

    def rank_of(self, module: str) -> Optional[int]:
        """Layer rank of a dotted module, or None when unranked."""
        if self.in_package(module, *self.exempt, *self.isolated):
            return None
        matches = [p for p in self.ranks if self.in_package(module, p)]
        return self.ranks[max(matches, key=len)] if matches else None

    def is_isolated(self, module: str) -> bool:
        return self.in_package(module, *self.isolated)

    def is_observed(self, module: str) -> bool:
        return self.in_package(module, *self.observes)

    def purity_allowlist(self, module: str) -> Optional[Tuple[str, ...]]:
        for prefix, allow in self.purity.items():
            if self.in_package(module, prefix):
                return allow
        return None


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
        # 3 — scheduling policy stacks.
        "multiprog": 3,
        "baselines": 3,
        # 4 — broker core and workload synthesis.
        "core": 4,
        "workloads": 4,
        # 5 — the runner (cache/engine) and scenario facade.
        "runner": 5,
        "scenario": 5,
        # 6 — the top: experiments, the CLI, and the real-socket twin of
        #     the streaming layer (DESIGN.md's proof; only an example
        #     drives it, and nothing under the simulator may import it).
        "experiments": 6,
        "cli": 6,
        "interposition": 6,
    },
    isolated=("obs",),
    observes=("sim", "core", "grid", "streaming", "multiprog", "net"),
    exempt=("analysis",),
    purity={
        # The compiled-lane contract from PR 8: repro.sim must stay
        # self-contained so the C lane / future compiled lanes see no
        # foreign imports at module level.
        # `gc`: a run pauses the cyclic collector (collector_paused);
        # `hashlib`: rng.py names its streams by blake2b, once per
        # stream — an import statement inside that branch ran 11 k
        # times per grid_day; `contextlib`: trace_span's no-op context
        # for an untraced environment.
        "sim": ("__future__", "collections", "contextlib", "dataclasses",
                "enum", "functools", "gc", "hashlib", "heapq", "itertools",
                "math", "os", "types", "typing", "warnings", "weakref",
                "numpy"),
    },
    factory_only={
        # Driver layers must build brokers via core.protocol.make_broker
        # so broker_mode stays data, not code.
        "CrossBroker": ("experiments", "examples"),
        "PullBroker": ("experiments", "examples"),
        "DataAwareBroker": ("experiments", "examples"),
        # Drivers reach steering through the adapters control_scope
        # yields (one per world Scenario.build steers), never by wrapping
        # a handle themselves — the adapter is chaos replay's world half,
        # not a driver convenience.
        "SteeringAdapter": ("experiments", "examples"),
    },
)


def _eager_targets(summary: ModuleSummary,
                   namespace: str) -> Iterable[Tuple[str, int]]:
    """Distinct eager in-namespace import targets with first line."""
    seen: Dict[str, int] = {}
    for edge in summary.imports:
        if not edge.lazy and _within(edge.target, namespace):
            seen.setdefault(edge.target, edge.line)
    return seen.items()


def _resolve_edge_target(graph: ProgramGraph, target: str) -> str:
    """Map an import target onto a module in the universe.

    ``from repro.core import broker`` records target ``repro.core``; the
    module-level edge we care about is the longest prefix of ``target``
    present in the graph (falling back to ``target``).
    """
    return graph.split_symbol(target)[0] or target


class LayerDagRule(FlowRule):
    """Eager imports and constructions must respect the declared layer map.

    One pass per module over the four declarations a :class:`LayerMap`
    carries:

    * ``ranks`` — a ranked module may eagerly import only modules of
      equal or lower rank.  Edges are followed through *unranked*
      intermediates (an ``__init__`` facade, a helper module) so the
      finding reports the full offending chain — ``repro.grid.site ->
      repro.grid.util -> repro.runner.engine`` — not just the first hop.
      Once a chain reaches another *ranked* module, that module's own
      imports are its own obligation and traversal stops.
    * ``isolated`` / ``observes`` — observed layers must not eagerly
      import the observer: ``repro.obs`` hooks into the kernel through
      zero-cost attributes, and an eager import in the other direction
      would make observability a load-bearing dependency of the thing
      it observes (function-level imports remain sanctioned).
    * ``purity`` — the kernel package imports only its substrate
      allowlist at module level, so the compiled lane sees no foreign
      imports; intra-package imports stay allowed.
    * ``factory_only`` — driver layers construct brokers via
      ``make_broker`` only: a direct ``CrossBroker(...)`` hard-codes a
      scheduling architecture that ``Scenario(broker_mode=...)`` is
      supposed to select.
    """

    id = "flow-layer-dag"
    category = "layering"

    def __init__(self, layers: LayerMap) -> None:
        self.layers = layers

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        for summary in graph.summaries():
            yield from self._check_ranks(graph, summary)
            yield from self._check_isolation(summary)
            yield from self._check_purity(summary)
            yield from self._check_factories(summary)

    def _check_ranks(self, graph: ProgramGraph,
                     summary: ModuleSummary) -> Iterable[Finding]:
        rank = self.layers.rank_of(summary.module)
        if rank is None:
            return
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

    def _check_isolation(self, summary: ModuleSummary) -> Iterable[Finding]:
        if not self.layers.is_observed(summary.module):
            return
        for edge in summary.imports:
            if not edge.lazy and self.layers.is_isolated(edge.target):
                yield self.finding(
                    summary, edge.line,
                    f"observed module {summary.module} eagerly "
                    f"imports {edge.target}; observability must "
                    "attach via hooks, not imports (use a "
                    "function-level import if unavoidable)")

    def _check_purity(self, summary: ModuleSummary) -> Iterable[Finding]:
        allow = self.layers.purity_allowlist(summary.module)
        if allow is None:
            return
        own = ".".join(summary.module.split(".")[:2])  # repro.sim
        for edge in summary.imports:
            if edge.lazy or _within(edge.target, own):
                continue
            top = edge.target.split(".")[0]
            if top == self.layers.namespace:
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

    def _check_factories(self, summary: ModuleSummary) -> Iterable[Finding]:
        restricted = self.layers.factory_only
        for fn in summary.all_functions():
            for call in fn.calls:
                leaf = call.callee.split(".")[-1]
                if leaf in restricted and self.layers.in_package(
                        summary.module, *restricted[leaf]):
                    yield self.finding(
                        summary, call.line,
                        f"direct {leaf}(...) construction in "
                        f"{summary.module}; use make_broker() / "
                        "Scenario(broker_mode=...) so the "
                        "architecture stays configuration")
