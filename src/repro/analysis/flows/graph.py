"""Whole-program call graph: per-module symbol/call summaries.

One :class:`ModuleSummary` per file, produced by a single AST walk; the
whole tree parses in well under a second, so every run starts cold and
nothing is written to disk.

The summary records exactly what the worker-purity rule consumes:

* **aliases** — local name -> dotted target, the per-module symbol
  table that call resolution walks (re-export chains are followed
  across modules, bounded);
* **functions / classes** — per function or method: its call sites,
  its function-level import aliases, and **writes** to names that are
  not local to the function (the worker-purity rule's raw material);
* **spec registrations** — ``register(ExperimentSpec(...))`` call
  sites with their keyword expressions (worker entry points);
* **worker entries** — the first argument of ``<pool>.submit(f, ...)``
  calls;
* **suppressions** — the file's parsed ``# simlint: disable`` table, so
  flow findings honour the same pragma contract as per-file rules.

Module names derive from the package root (the topmost ancestor chain
of ``__init__.py`` files), so ``src/repro/core/broker.py`` summarises
as ``repro.core.broker`` and a fixture tree rooted anywhere does the
same — findings and call resolution key on dotted names, not
filesystem location.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine import _parse_suppressions, _Suppressions

__all__ = [
    "CallSite",
    "ClassSummary",
    "FlowStats",
    "FunctionSummary",
    "ModuleSummary",
    "ProgramGraph",
    "SpecReg",
    "WriteSite",
    "build_graph",
    "module_name_for",
    "summarize_source",
]

#: Alias chains (re-exports) are followed at most this many hops.
_MAX_ALIAS_HOPS = 6


# ---------------------------------------------------------------------------
# summary dataclasses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One call expression whose callee is a plain dotted name."""

    callee: str          #: dotted callee expr ("helper.run")
    line: int


@dataclass(frozen=True)
class WriteSite:
    """A write through a name that is not local to the function."""

    base: str    #: the written-through name ("CACHE", "Environment")
    attr: str    #: attribute for setattr writes ("" for item/method writes)
    line: int
    kind: str    #: "rebind" (global X; X=) | "setattr" | "mutate"


@dataclass
class FunctionSummary:
    """Body facts for one function or method (nested defs fold in)."""

    name: str                       #: qualname in module ("Cls.meth")
    calls: List[CallSite] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)
    #: function-level import bindings (lazy imports): name -> dotted.
    local_aliases: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    """One module-level class: its methods."""

    name: str
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)


@dataclass(frozen=True)
class SpecReg:
    """A ``register(ExperimentSpec(...))`` site (keyword -> name expr)."""

    line: int
    kwargs: Tuple[Tuple[str, str], ...]

    def kwarg(self, name: str) -> str:
        for key, value in self.kwargs:
            if key == name:
                return value
        return ""


@dataclass
class ModuleSummary:
    """Everything the flow rules need to know about one file."""

    module: str
    relpath: str       #: path as reported in findings
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: names assigned at module top level.
    module_globals: Set[str] = field(default_factory=set)
    spec_regs: List[SpecReg] = field(default_factory=list)
    #: raw first-arg names of pool ``.submit`` calls.
    worker_entries: List[Tuple[str, int]] = field(default_factory=list)
    suppressions: _Suppressions = field(default_factory=_Suppressions)
    syntax_error: Optional[Tuple[int, int, str]] = None


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------
def _package_root(path: str) -> str:
    """Topmost directory whose chain down to ``path`` is all packages."""
    directory = os.path.dirname(os.path.abspath(path))
    while os.path.exists(os.path.join(directory, "__init__.py")):
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return directory


def module_name_for(path: str) -> str:
    """Dotted module name of ``path`` relative to its package root."""
    root = _package_root(path)
    rel = os.path.relpath(os.path.abspath(path), root)
    parts = rel.replace(os.sep, "/").split("/")
    parts[-1] = parts[-1][:-len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else os.path.basename(root)


def _containing_package(module: str, is_init: bool) -> List[str]:
    parts = module.split(".")
    return parts if is_init else parts[:-1]


# ---------------------------------------------------------------------------
# the summariser
# ---------------------------------------------------------------------------
def _dotted(node: ast.AST) -> str:
    """Flatten Name/Attribute chains ("a.b.c"); "" when not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _spec_kwarg(node: ast.AST) -> str:
    """Value expr of a spec kwarg: a string literal or a dotted name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return _dotted(node)


#: Mutating container/obj methods treated as writes to the receiver.
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert",
    "remove", "discard", "clear", "pop", "popitem", "appendleft",
})


class _Summarizer(ast.NodeVisitor):
    """One-pass walker building a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, package: List[str]) -> None:
        self.s = summary
        self.package = package
        self.func_stack: List[FunctionSummary] = []
        self.class_stack: List[ClassSummary] = []
        self.local_stack: List[Set[str]] = []

    # -- imports ---------------------------------------------------------
    def _add_alias(self, name: str, target: str) -> None:
        # A function-local import binds a *shared* object (module or
        # class), not function-local state: record the alias but keep
        # the name out of the locals set so writes through it are still
        # seen as writes to shared state.
        if self.func_stack:
            self.func_stack[-1].local_aliases[name] = target
        elif not self.class_stack:
            self.s.aliases[name] = target

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self._add_alias(bound, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self.package[:len(self.package) - (node.level - 1)]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        for alias in node.names:
            if alias.name != "*":
                self._add_alias(alias.asname or alias.name,
                                f"{module}.{alias.name}")

    # -- defs ------------------------------------------------------------
    def _visit_def(self, node: Any) -> None:
        qual = (f"{self.class_stack[-1].name}.{node.name}"
                if self.class_stack else node.name)
        fn = FunctionSummary(name=qual)
        if self.class_stack and not self.func_stack:
            self.class_stack[-1].methods[node.name] = fn
        elif not self.func_stack:
            self.s.functions[node.name] = fn
        # Nested defs fold into the enclosing function's summary (their
        # bodies still contribute calls/writes to it).
        target = self.func_stack[-1] if self.func_stack else fn
        args = node.args
        locals_ = {a.arg for a in (args.posonlyargs + args.args
                                   + args.kwonlyargs)}
        if args.vararg:
            locals_.add(args.vararg.arg)
        if args.kwarg:
            locals_.add(args.kwarg.arg)
        if self.func_stack:
            self.local_stack[-1].update(locals_)
            for child in node.body:
                self.visit(child)
            return
        self.func_stack.append(target)
        self.local_stack.append(locals_)
        for child in node.body:
            self.visit(child)
        self.local_stack.pop()
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.func_stack:  # function-local class: opaque
            self.generic_visit(node)
            return
        klass = ClassSummary(name=node.name)
        self.s.classes[node.name] = klass
        self.class_stack.append(klass)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    # -- module globals --------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.func_stack and not self.class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.s.module_globals.add(target.id)
        self._check_write_target(node)
        if self.func_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_stack[-1].add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (not self.func_stack and not self.class_stack
                and isinstance(node.target, ast.Name)
                and node.value is not None):
            self.s.module_globals.add(node.target.id)
        self._check_write_target(node)
        if self.func_stack and isinstance(node.target, ast.Name):
            self.local_stack[-1].add(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.func_stack:
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    self.local_stack[-1].add(name.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if self.func_stack:
            for item in node.items:
                if item.optional_vars is not None:
                    for name in ast.walk(item.optional_vars):
                        if isinstance(name, ast.Name):
                            self.local_stack[-1].add(name.id)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        if self.func_stack:
            fn = self.func_stack[-1]
            for name in node.names:
                fn.writes.append(WriteSite(
                    base=name, attr="", line=node.lineno, kind="rebind"))

    def _check_write_target(self, node: Any) -> None:
        """Record ``X[...] = v`` / ``X.attr = v`` with non-local ``X``."""
        if not self.func_stack:
            return
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        fn = self.func_stack[-1]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name):
                base = target.value.id
                if not self._is_local(base):
                    fn.writes.append(WriteSite(
                        base=base, attr="", line=target.lineno,
                        kind="mutate"))
            elif isinstance(target, ast.Attribute):
                base = _dotted(target.value)
                root = base.split(".")[0] if base else ""
                if root and root not in ("self", "cls") and \
                        not self._is_local(root):
                    fn.writes.append(WriteSite(
                        base=base, attr=target.attr, line=target.lineno,
                        kind="setattr"))

    def _is_local(self, name: str) -> bool:
        return bool(self.local_stack) and name in self.local_stack[-1]

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted(node.func)
        if self.func_stack and callee:
            fn = self.func_stack[-1]
            fn.calls.append(CallSite(callee=callee, line=node.lineno))
            # Mutating method on a non-local receiver: CACHE.append(...)
            if "." in callee:
                base, method = callee.rsplit(".", 1)
                root = base.split(".")[0]
                if (method in _MUTATORS and root not in ("self", "cls")
                        and not self._is_local(root)):
                    fn.writes.append(WriteSite(
                        base=base, attr="", line=node.lineno,
                        kind="mutate"))
        # Worker-entry detection: pool.submit(f, ...)
        leaf = callee.split(".")[-1] if callee else ""
        if leaf == "submit" and node.args and \
                isinstance(node.args[0], ast.Name):
            self.s.worker_entries.append(
                (node.args[0].id, node.lineno))
        # Spec registration: register(ExperimentSpec(...))
        if leaf == "register" and len(node.args) == 1 and isinstance(
                node.args[0], ast.Call):
            inner = node.args[0]
            if _dotted(inner.func).split(".")[-1] == "ExperimentSpec":
                self.s.spec_regs.append(SpecReg(
                    line=node.lineno,
                    kwargs=tuple(
                        (kw.arg, _spec_kwarg(kw.value))
                        for kw in inner.keywords if kw.arg is not None)))
        self.generic_visit(node)


def summarize_source(source: str, path: str, relpath: str) -> ModuleSummary:
    """Build one module's summary (syntax errors become a marker)."""
    module = module_name_for(path)
    summary = ModuleSummary(
        module=module, relpath=relpath,
        suppressions=_parse_suppressions(source.splitlines()))
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        summary.syntax_error = (exc.lineno or 1, exc.offset or 0,
                                exc.msg or "invalid syntax")
        return summary
    is_init = os.path.basename(path) == "__init__.py"
    package = _containing_package(module, is_init)
    _Summarizer(summary, package).visit(tree)
    return summary


# ---------------------------------------------------------------------------
# the linked graph
# ---------------------------------------------------------------------------
@dataclass
class FlowStats:
    """How the graph was built (surfaced on stderr and in tests)."""

    files: int = 0
    elapsed: float = 0.0

    def describe(self) -> str:
        return f"flows: {self.files} modules in {self.elapsed:.3f}s"


class ProgramGraph:
    """All module summaries, linked for cross-module resolution."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.order: List[str] = sorted(self.modules)

    # -- lookups ---------------------------------------------------------
    def module(self, name: str) -> Optional[ModuleSummary]:
        return self.modules.get(name)

    def summaries(self) -> Iterable[ModuleSummary]:
        for name in self.order:
            yield self.modules[name]

    def split_symbol(self, dotted: str) -> Tuple[Optional[str], str]:
        """Split ``a.b.c`` into (module, symbol-path) against the universe."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate, ".".join(parts[i:])
        return None, dotted

    def resolve(self, module: str, name: str,
                local_aliases: Optional[Dict[str, str]] = None,
                _hops: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve a dotted name to ``(module, symbol)`` in the universe.

        ``symbol`` may itself be dotted ("Class.method") or "" when the
        name resolves to a module.  Follows re-export chains (``from .x
        import f`` in an ``__init__``) up to :data:`_MAX_ALIAS_HOPS`.
        """
        if _hops > _MAX_ALIAS_HOPS:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, rest = name.partition(".")
        # Local (function-level) aliases shadow module-level ones.
        target = None
        if local_aliases and head in local_aliases:
            target = local_aliases[head]
        elif head in summary.aliases:
            target = summary.aliases[head]
        if target is None:
            if head in summary.functions or head in summary.classes or \
                    head in summary.module_globals:
                symbol = head + (f".{rest}" if rest else "")
                return module, symbol
            return None
        dotted = target + (f".{rest}" if rest else "")
        target_module, symbol = self.split_symbol(dotted)
        if target_module is None:
            return None
        if not symbol:
            return target_module, ""
        target_summary = self.modules[target_module]
        head2 = symbol.split(".")[0]
        if head2 in target_summary.functions or \
                head2 in target_summary.classes or \
                head2 in target_summary.module_globals:
            return target_module, symbol
        # Re-exported: chase the alias in the target module.
        return self.resolve(target_module, symbol, _hops=_hops + 1)

    def find_function(self, module: str, name: str,
                      local_aliases: Optional[Dict[str, str]] = None,
                      ) -> Optional[Tuple[ModuleSummary, FunctionSummary]]:
        """Resolve a callee name to its :class:`FunctionSummary`."""
        resolved = self.resolve(module, name, local_aliases)
        if resolved is None:
            return None
        mod_name, symbol = resolved
        summary = self.modules[mod_name]
        if not symbol:
            return None
        parts = symbol.split(".")
        if len(parts) == 1:
            fn = summary.functions.get(parts[0])
            return (summary, fn) if fn is not None else None
        if len(parts) == 2 and parts[0] in summary.classes:
            fn = summary.classes[parts[0]].methods.get(parts[1])
            return (summary, fn) if fn is not None else None
        return None


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------
def build_graph(files: Sequence[str], root: Optional[str] = None,
                ) -> Tuple[ProgramGraph, FlowStats]:
    """Parse every file and link the program graph."""
    t0 = time.perf_counter()
    summaries: List[ModuleSummary] = []
    for path in files:
        try:
            with open(path, "rb") as fh:
                source = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        relpath = os.path.relpath(path, root) if root else path
        summaries.append(summarize_source(source, path, relpath))
    graph = ProgramGraph(summaries)
    return graph, FlowStats(files=len(files),
                            elapsed=time.perf_counter() - t0)
