"""Worker purity: no module-global writes behind worker entry points.

The runner's serial == parallel == cached guarantee assumes a cell
computes the same payload whether it runs in-process or inside a
ProcessPoolExecutor worker.  Module-level mutable state
breaks that silently: in the parent the writes accumulate across
cells; in a forked worker each process starts from import-time state.
Until now that invariant rested on review alone.

The rule collects every **worker entry point** in the universe —

* the first argument of ``<pool>.submit(f, ...)`` calls (the runner
  engine's ``_execute_cell``), and
* every callable registered on an ``ExperimentSpec`` (``run_cell`` /
  ``plan`` / ``merge``), because the engine dispatches to them through
  ``spec.run_cell`` — an attribute call no static call graph resolves —
  from inside ``_execute_cell``

— then walks the call graph from each entry and flags writes that
escape function scope: rebinding a module global (``global X; X =``),
mutating one (``CACHE[k] =``, ``STATE.append(...)``), or setting
attributes on a class or module (``Environment.telemetry_factory =``).
Reads stay legal; so does module-init state that is never written
after import.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..engine import Finding
from .graph import FunctionSummary, ModuleSummary, ProgramGraph

__all__ = ["WorkerPurityRule", "collect_worker_entries"]

_MAX_CALL_DEPTH = 12

#: Well-known process/thread-local or intentionally-global stdlib
#: receivers that are not part of the determinism contract.
_IGNORED_ROOTS = frozenset({"os", "sys", "logging", "warnings"})


def collect_worker_entries(graph: ProgramGraph,
                           ) -> List[Tuple[ModuleSummary, FunctionSummary,
                                           str]]:
    """All worker entry functions with a human-readable origin label."""
    out: Dict[Tuple[str, str], Tuple[ModuleSummary, FunctionSummary,
                                     str]] = {}

    def add(resolved: Optional[Tuple[ModuleSummary, FunctionSummary]],
            origin: str) -> None:
        if resolved is None:
            return
        summary, fn = resolved
        out.setdefault((summary.module, fn.name), (summary, fn, origin))

    for summary in graph.summaries():
        for name, line in summary.worker_entries:
            add(graph.find_function(summary.module, name),
                f"pool submit at {summary.relpath}:{line}")
        for reg in summary.spec_regs:
            exp = reg.kwarg("experiment_id") or "?"
            for role in ("run_cell", "plan", "merge"):
                target = reg.kwarg(role)
                if target:
                    add(graph.find_function(summary.module, target),
                        f"ExperimentSpec({exp}).{role}")
    return [out[key] for key in sorted(out)]


class WorkerPurityRule:
    """Flags module/class-state writes reachable from worker entries.

    A finding means a function on some worker entry's call path writes
    state that outlives the call: the serial and parallel runs of the
    same plan then see different module state, which is exactly what
    the golden-determinism contract forbids.  Mirrors the per-file
    :class:`~repro.analysis.engine.Rule` attributes (``id``,
    ``category``, ``summary``); suppression pragmas are honoured by
    :func:`~.engine.run_flows` after the rule runs, so it just yields.
    """

    id = "flow-worker-purity"
    category = "determinism"
    summary = "Flags module/class-state writes reachable from worker entries"

    def finding(self, summary: ModuleSummary, line: int,
                message: str) -> Finding:
        return Finding(rule=self.id, category=self.category,
                       path=summary.relpath, line=line, col=0,
                       message=message)

    def check(self, graph: ProgramGraph) -> Iterable[Finding]:
        entries = collect_worker_entries(graph)
        reported: Set[Tuple[str, int, str]] = set()
        for summary, fn, origin in entries:
            yield from self._walk(graph, summary, fn, origin, reported)

    def _walk(self, graph: ProgramGraph, entry_summary: ModuleSummary,
              entry_fn: FunctionSummary, origin: str,
              reported: Set[Tuple[str, int, str]]) -> Iterable[Finding]:
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, FunctionSummary, Tuple[str, ...], int]] = [
            (entry_summary.module, entry_fn, (entry_fn.name,), 0)]
        while stack:
            mod, fn, chain, depth = stack.pop()
            if (mod, fn.name) in seen or depth > _MAX_CALL_DEPTH:
                continue
            seen.add((mod, fn.name))
            summary = graph.module(mod)
            if summary is None:
                continue
            for write in fn.writes:
                finding = self._classify(graph, summary, fn, write,
                                         origin, chain)
                if finding is not None:
                    key = (finding.path, finding.line, finding.message)
                    if key not in reported:
                        reported.add(key)
                        yield finding
            for call in fn.calls:
                resolved = graph.find_function(mod, call.callee,
                                               fn.local_aliases)
                if resolved is None:
                    continue
                callee_summary, callee = resolved
                stack.append((callee_summary.module, callee,
                              chain + (callee.name,), depth + 1))

    def _classify(self, graph: ProgramGraph, summary: ModuleSummary,
                  fn: FunctionSummary, write, origin: str,
                  chain: Tuple[str, ...]) -> Optional[Finding]:
        root = write.base.split(".")[0]
        if root in _IGNORED_ROOTS:
            return None
        via = " -> ".join(chain)
        if write.kind == "rebind":
            if root in summary.module_globals:
                return self.finding(
                    summary, write.line,
                    f"worker purity: {fn.name} rebinds module global "
                    f"{root!r} ({summary.module}); reachable from "
                    f"worker entry [{origin}] via {via}")
            return None
        resolved = graph.resolve(summary.module, root, fn.local_aliases)
        if resolved is None:
            return None
        target_module, symbol = resolved
        target = graph.module(target_module)
        if target is None:
            return None
        if write.kind == "mutate":
            if symbol and symbol.split(".")[0] in target.module_globals:
                return self.finding(
                    summary, write.line,
                    f"worker purity: {fn.name} mutates module global "
                    f"{symbol.split('.')[0]!r} ({target_module}); "
                    f"reachable from worker entry [{origin}] via {via}")
            return None
        # setattr: writing an attribute on a class or a module object.
        if not symbol:
            return self.finding(
                summary, write.line,
                f"worker purity: {fn.name} sets "
                f"{target_module}.{write.attr}; module attributes "
                f"written from worker paths diverge between serial "
                f"and forked runs (entry [{origin}] via {via})")
        head = symbol.split(".")[0]
        if head in target.classes:
            return self.finding(
                summary, write.line,
                f"worker purity: {fn.name} sets class attribute "
                f"{head}.{write.attr} ({target_module}); reachable "
                f"from worker entry [{origin}] via {via}")
        if head in target.module_globals:
            return self.finding(
                summary, write.line,
                f"worker purity: {fn.name} sets attribute "
                f"{write.attr!r} on module global {head!r} "
                f"({target_module}); reachable from worker entry "
                f"[{origin}] via {via}")
        return None
