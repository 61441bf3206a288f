"""simlint — the rule engine.

A small AST-based linter with simulation-specific rules.  The golden-job
determinism contract ("every render is byte-identical across serial,
``--parallel N``, and cache-served runs") is enforced *after the fact* by
output diffs; simlint moves enforcement to PR time by recognising the
hazard classes that have historically broken it — unordered-set
iteration, unseeded randomness, wall-clock reads, raw ``env.timeout``
churn loops, direct kernel-queue manipulation, and swallowed failures.

Architecture
------------
* A :class:`Rule` declares the AST node types it wants
  (:attr:`Rule.node_types`) and a :meth:`Rule.check` hook.
* :class:`LintContext` is the per-file walk state handed to every check:
  source lines, enclosing function/class/loop stacks, and
  :meth:`LintContext.report` to emit a :class:`Finding`.
* One walk per file: :class:`_Walker` dispatches each visited node to
  the rules registered for its type, maintaining the stacks as it
  recurses.
* Suppressions are comment-driven (mirroring the familiar linter idiom)::

      x = hash(obj)          # simlint: disable=id-hash-order -- why it is ok
      # simlint: disable-file=kernel-queue-push -- this file IS the kernel

  A line-level ``disable`` silences the named rules (or ``all``) for
  findings reported *on that physical line*; a ``disable-file``
  directive, wherever it appears, silences them for the whole file.
  Everything after ``--`` is a free-form justification (encouraged).

Output is both human-oriented (``path:line:col [rule] message``) and
machine-oriented (:func:`findings_to_json`), and the whole pass is
deterministic: files are visited in sorted order and findings are sorted
by (path, line, col, rule).
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Set, TextIO,
                    Tuple, Type)

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "collect_files",
    "findings_to_json",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_findings",
]

#: Matches ``simlint: disable[-file]=<rules>`` with an optional
#: free-form ``-- reason`` tail.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\- ]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    category: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "category": self.category,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message}")


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`check` is called once for every visited node whose type is in
    :attr:`node_types` and reports violations through
    :meth:`LintContext.report`.
    """

    #: Stable rule identifier used in reports and suppression comments.
    id: str = "abstract"
    #: ``determinism`` or ``kernel`` (used for grouping in reports/docs).
    category: str = "generic"
    #: One-line description (surfaced by ``repro lint --list-rules``).
    summary: str = ""
    #: AST node classes this rule wants to inspect.
    node_types: Tuple[Type[ast.AST], ...] = ()
    #: Relative-path suffixes exempt from this rule (built-in allowlist,
    #: e.g. ``sim/rng.py`` for the unseeded-random rule).
    exempt_suffixes: Tuple[str, ...] = ()

    def check(self, node: ast.AST, ctx: "LintContext") -> None:
        raise NotImplementedError

    def applies_to(self, relpath: str) -> bool:
        norm = relpath.replace(os.sep, "/")
        return not any(norm.endswith(sfx) for sfx in self.exempt_suffixes)


@dataclass
class _Suppressions:
    """Parsed suppression directives for one file.

    ``directives`` keeps the raw parsed entries — ``(line, scope,
    rules)`` with scope ``"disable"`` or ``"disable-file"`` — so the
    suppression audit (``repro lint --audit-suppressions``) can match
    each pragma against the findings it actually silenced.
    """

    file_level: Set[str] = field(default_factory=set)
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    directives: List[Tuple[int, str, Tuple[str, ...]]] = field(
        default_factory=list)

    def active(self, rule_id: str, line: int) -> bool:
        if "all" in self.file_level or rule_id in self.file_level:
            return True
        rules = self.by_line.get(line)
        return rules is not None and ("all" in rules or rule_id in rules)


def _comment_lines(lines: Sequence[str]) -> Optional[Set[int]]:
    """Line numbers carrying a real ``#`` comment token.

    Distinguishes live directives from pragma-*shaped* text inside
    docstrings and string literals (rule documentation, test sources),
    which must neither suppress anything nor count in the audit.
    Returns None when tokenisation fails (the caller then falls back to
    honouring every matching line — over-suppressing beats silently
    dropping a real pragma in a file the tokenizer chokes on).
    """
    import io
    import tokenize
    found: Set[int] = set()
    try:
        reader = io.StringIO("\n".join(lines) + "\n").readline
        for tok in tokenize.generate_tokens(reader):
            if tok.type == tokenize.COMMENT:
                found.add(tok.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError,
            ValueError):
        return None
    return found


def _parse_suppressions(lines: Sequence[str]) -> _Suppressions:
    sup = _Suppressions()
    comments = _comment_lines(lines)
    for lineno, line in enumerate(lines, start=1):
        if "simlint" not in line:
            continue
        if comments is not None and lineno not in comments:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        # Cut the free-form justification tail ("rule-a -- why"): the
        # character class admits hyphens and spaces, so a comma-bearing
        # reason would otherwise leak extra pseudo-rule tokens.
        rules = set()
        for token in match.group("rules").split("--", 1)[0].split(","):
            token = token.strip()
            if token:
                rules.add(token.split()[0])
        if not rules:
            continue
        if match.group("scope") == "disable-file":
            sup.file_level |= rules
        else:
            sup.by_line.setdefault(lineno, set()).update(rules)
        sup.directives.append(
            (lineno, match.group("scope"), tuple(sorted(rules))))
    return sup


class LintContext:
    """Per-file state shared by all rules during one AST walk."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.findings: List[Finding] = []
        #: Findings silenced by a suppression directive (audit fodder).
        self.suppressed: List[Finding] = []
        #: Enclosing ``FunctionDef``/``AsyncFunctionDef`` nodes, outermost
        #: first.  ``func_stack[-1]`` is the current function.
        self.func_stack: List[ast.AST] = []
        #: Enclosing ``ClassDef`` nodes, outermost first.
        self.class_stack: List[ast.ClassDef] = []
        #: Number of enclosing ``for``/``while`` loops in the *current
        #: function* (reset at function boundaries).
        self.loop_depth = 0
        self._suppressions = _parse_suppressions(self.lines)

    # -- introspection helpers used by rules -----------------------------
    @property
    def current_function(self) -> Optional[ast.AST]:
        return self.func_stack[-1] if self.func_stack else None

    @property
    def current_function_name(self) -> Optional[str]:
        func = self.current_function
        return getattr(func, "name", None) if func is not None else None

    @property
    def in_loop(self) -> bool:
        return self.loop_depth > 0

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- reporting -------------------------------------------------------
    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        finding = Finding(
            rule=rule.id, category=rule.category, path=self.relpath,
            line=line, col=col, message=message,
            snippet=self.line_at(line))
        if self._suppressions.active(rule.id, line):
            self.suppressed.append(finding)
            return
        self.findings.append(finding)


class _Walker(ast.NodeVisitor):
    """Single-pass AST walker maintaining the context stacks and
    dispatching nodes to the rules registered for their type."""

    def __init__(self, rules: Sequence[Rule], ctx: LintContext) -> None:
        self.ctx = ctx
        self.dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            if not rule.applies_to(ctx.relpath):
                continue
            for node_type in rule.node_types:
                self.dispatch.setdefault(node_type, []).append(rule)

    # generic dispatch ---------------------------------------------------
    def visit(self, node: ast.AST) -> None:
        for rule in self.dispatch.get(type(node), ()):
            rule.check(node, self.ctx)
        self._descend(node)

    def _descend(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            ctx.func_stack.append(node)
            saved_depth, ctx.loop_depth = ctx.loop_depth, 0
            self.generic_visit(node)
            ctx.loop_depth = saved_depth
            ctx.func_stack.pop()
        elif isinstance(node, ast.ClassDef):
            ctx.class_stack.append(node)
            self.generic_visit(node)
            ctx.class_stack.pop()
        elif isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            ctx.loop_depth += 1
            self.generic_visit(node)
            ctx.loop_depth -= 1
        else:
            self.generic_visit(node)

    def generic_visit(self, node: ast.AST) -> None:
        # NodeVisitor.generic_visit calls self.visit on children, which is
        # exactly the dispatch we want; keep the default behaviour.
        super().generic_visit(node)


def _lint(source: str, relpath: str, rules: Sequence[Rule]) -> LintContext:
    """The one parse -> walk -> sort path behind every entry point: a
    file that does not parse is one ``syntax-error`` pseudo-finding."""
    ctx = LintContext(relpath, source)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        ctx.findings.append(Finding(
            rule="syntax-error", category="parse", path=relpath,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}"))
        return ctx
    _Walker(rules, ctx).visit(tree)
    ctx.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ctx


def _lint_path(path: str, rules: Sequence[Rule],
               root: Optional[str]) -> LintContext:
    relpath = os.path.relpath(path, root) if root else path
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return _lint(source, relpath, rules)


def lint_source(source: str, relpath: str,
                rules: Sequence[Rule]) -> List[Finding]:
    """Lint one source string; returns sorted findings."""
    return _lint(source, relpath, rules).findings


def lint_file(path: str, rules: Sequence[Rule],
              root: Optional[str] = None) -> List[Finding]:
    """Lint one file; ``root`` anchors the relative path in reports."""
    return _lint_path(path, rules, root).findings


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a deterministic sorted ``.py`` list."""
    out: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git"))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.add(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.add(path)
    return sorted(out)


def lint_paths(paths: Iterable[str], rules: Sequence[Rule],
               root: Optional[str] = None) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (deterministic order)."""
    findings: List[Finding] = []
    for path in collect_files(paths):
        findings.extend(lint_file(path, rules, root=root))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


@dataclass
class FileLintResult:
    """Per-file lint outcome with suppression detail (for the audit)."""

    relpath: str
    findings: List[Finding]
    suppressed: List[Finding]
    suppressions: _Suppressions


def lint_files_detailed(files: Sequence[str], rules: Sequence[Rule],
                        root: Optional[str] = None) -> List[FileLintResult]:
    """Like :func:`lint_paths` over explicit files, keeping per-file
    suppression state so ``--audit-suppressions`` can match directives
    against the findings they silenced."""
    out: List[FileLintResult] = []
    for path in files:
        ctx = _lint_path(path, rules, root)
        out.append(FileLintResult(
            relpath=ctx.relpath, findings=ctx.findings,
            suppressed=ctx.suppressed, suppressions=ctx._suppressions))
    return out


# -- output -------------------------------------------------------------
def render_findings(findings: Sequence[Finding],
                    stream: Optional[TextIO] = None) -> None:
    """Human-oriented report (one line per finding + summary)."""
    stream = stream if stream is not None else sys.stdout
    for finding in findings:
        print(finding.render(), file=stream)
        if finding.snippet:
            print(f"    {finding.snippet}", file=stream)
    count = len(findings)
    rules = sorted({f.rule for f in findings})
    if count:
        print(f"simlint: {count} finding(s) across {len(rules)} rule(s): "
              f"{', '.join(rules)}", file=stream)
    else:
        print("simlint: clean", file=stream)


def findings_to_json(findings: Sequence[Finding], *,
                     checked_files: int = 0,
                     rule_ids: Sequence[str] = ()) -> str:
    """Machine-oriented report (stable key order, sorted findings)."""
    payload = {
        "tool": "simlint",
        "checked_files": checked_files,
        "rules": list(rule_ids),
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=False)
