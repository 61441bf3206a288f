"""``repro lint`` — run simlint (per-file rules and the flows pass).

Exit status is 0 when no findings survive pragma suppression, 1
otherwise (2 for usage errors), so the command gates CI directly.
Beyond the per-file rule catalog this front-end drives:

``--flows``
    The whole-program pass (:mod:`repro.analysis.flows`): worker purity
    (``flow-worker-purity``).  Parses the tree afresh on every run and
    writes nothing to disk.
``--format github``
    GitHub Actions ``::error`` annotations (inline PR comments) in
    addition to the text report.
``--format markdown`` (with ``--list-rules``)
    The committed rule-catalog table (``docs/simlint-rules.md``); CI
    regenerates and diffs it.
``--audit-suppressions``
    Reports ``# simlint: disable`` pragmas that no longer silence any
    finding, so stale suppressions rot out of the tree.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (FileLintResult, Finding, collect_files,
                     findings_to_json, lint_files_detailed,
                     render_findings)
from .flows import WorkerPurityRule, run_flows
from .rules import ALL_RULES, rules_by_category, rules_by_id

_CATEGORIES = ("determinism", "kernel")


def _excluded(relpath: str, excludes: Sequence[str]) -> bool:
    norm = relpath.replace(os.sep, "/")
    return any(norm.startswith(prefix.rstrip("/") + "/")
               or norm == prefix.rstrip("/")
               for prefix in excludes)


def _split_select(select: str) -> Tuple[List[str], bool]:
    """Partition ``--select`` tokens into (per-file rule ids, flows?).

    Tokens may be per-file rule ids, ``flow-worker-purity`` or a
    per-file category name (``determinism``/``kernel``), which expands
    to every rule in it.  Unknown tokens raise KeyError listing them all.
    """
    file_ids = {rule.id for rule in ALL_RULES}
    per_file: List[str] = []
    flows = False
    for token in (t.strip() for t in select.split(",")):
        if not token:
            continue
        if token in _CATEGORIES:
            per_file.extend(r.id for r in rules_by_category(token))
        elif token in file_ids:
            per_file.append(token)
        elif token == WorkerPurityRule.id:
            flows = True
        else:
            known = (sorted(file_ids) + [WorkerPurityRule.id]
                     + list(_CATEGORIES))
            raise KeyError(f"unknown simlint rule(s): ['{token}']; "
                           f"known: {known}")
    return per_file, flows


def _render_github(findings: Sequence[Finding]) -> None:
    """GitHub Actions workflow-command annotations, one per finding."""
    for f in findings:
        message = f.message.replace("%", "%25").replace(
            "\r", "%0D").replace("\n", "%0A")
        print(f"::error file={f.path},line={f.line},col={f.col},"
              f"title=simlint {f.rule}::{message}")


def _render_markdown_catalog() -> None:
    print("# simlint rule catalog")
    print()
    print("<!-- generated by `repro lint --list-rules --format markdown`"
          " — do not edit by hand; CI diffs this file. -->")
    print()
    print("## Per-file rules")
    print()
    print("| Rule | Category | Description |")
    print("| --- | --- | --- |")
    for rule in ALL_RULES:
        print(f"| `{rule.id}` | {rule.category} | {rule.summary} |")
    print()
    print("## Flow rules (`repro lint --flows`)")
    print()
    print("| Rule | Category | Description |")
    print("| --- | --- | --- |")
    print(f"| `{WorkerPurityRule.id}` | {WorkerPurityRule.category} | "
          f"{WorkerPurityRule.summary} |")


def _audit(results: Sequence[FileLintResult],
           flow_suppressed: Sequence[Finding]) -> List[str]:
    """Stale-suppression report lines (empty == all pragmas earn keep).

    A directive is *used* when some finding it names was actually
    silenced by it — line-scope directives must match the finding's
    line, file-scope ones match anywhere in the file.  Everything else
    is stale: the hazard was fixed, the rule changed, or the pragma
    never matched.
    """
    suppressed_by_path: Dict[str, List[Finding]] = {}
    for result in results:
        suppressed_by_path.setdefault(result.relpath, []).extend(
            result.suppressed)
    for finding in flow_suppressed:
        suppressed_by_path.setdefault(finding.path, []).append(finding)
    lines: List[str] = []
    for result in results:
        hits = suppressed_by_path.get(result.relpath, [])
        for line, scope, rules in result.suppressions.directives:
            for rule_id in rules:
                used = any(
                    (rule_id == "all" or f.rule == rule_id)
                    and (scope == "disable-file" or f.line == line)
                    for f in hits)
                if not used:
                    lines.append(
                        f"{result.relpath}:{line}: stale suppression "
                        f"[{rule_id}] ({scope}): no finding matches")
    return sorted(lines)


def lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: determinism & kernel-lifecycle static "
                    "analysis for the simulation codebase.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to lint (default: src)")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="also write a JSON report "
                             "('-' for stdout instead of the text report)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids or categories "
                             "(determinism/kernel) to run (default: all)")
    parser.add_argument("--exclude", metavar="PREFIX", action="append",
                        default=[],
                        help="skip files under this path prefix "
                             "(repeatable)")
    parser.add_argument("--flows", action="store_true",
                        help="also run the whole-program flows pass")
    parser.add_argument("--format", choices=("text", "github", "markdown"),
                        default="text",
                        help="output format (github adds ::error "
                             "annotations; markdown only with "
                             "--list-rules)")
    parser.add_argument("--audit-suppressions", action="store_true",
                        help="report stale '# simlint: disable' pragmas "
                             "instead of findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        if args.format == "markdown":
            _render_markdown_catalog()
        else:
            for rule in ALL_RULES:
                print(f"{rule.id:20s} [{rule.category}] {rule.summary}")
            print(f"{WorkerPurityRule.id:20s} "
                  f"[{WorkerPurityRule.category}] (flows) "
                  f"{WorkerPurityRule.summary}")
        return 0

    file_rules: Sequence = ALL_RULES
    run_file_pass = True
    if args.select:
        try:
            file_ids, flows = _split_select(args.select)
            file_rules = rules_by_id(file_ids)
        except KeyError as exc:
            print(f"repro lint: {exc.args[0]}", file=sys.stderr)
            return 2
        args.flows = args.flows or flows
        run_file_pass = bool(file_ids) or not flows

    paths = args.paths or ["src"]
    files = [f for f in collect_files(paths)
             if not _excluded(f, args.exclude)]
    if not files:
        print(f"repro lint: no python files under {paths}",
              file=sys.stderr)
        return 2

    results: List[FileLintResult] = []
    findings: List[Finding] = []
    if run_file_pass:
        results = lint_files_detailed(files, file_rules)
        for result in results:
            findings.extend(result.findings)

    flow_report = None
    if args.flows:
        flow_report = run_flows(files)
        findings.extend(flow_report.findings)
        print(flow_report.stats.describe(), file=sys.stderr)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if args.audit_suppressions:
        flow_suppressed = (flow_report.suppressed
                           if flow_report is not None else [])
        stale = _audit(results, flow_suppressed)
        for line in stale:
            print(line)
        if args.format == "github":
            for line in stale:
                path, lineno, rest = line.split(":", 2)
                print(f"::error file={path},line={lineno},"
                      f"title=simlint stale suppression::{rest.strip()}")
        print(f"simlint audit: {len(stale)} stale suppression(s)")
        return 1 if stale else 0

    rule_ids = ([r.id for r in file_rules] if run_file_pass else []) + \
        ([WorkerPurityRule.id] if args.flows else [])
    payload = findings_to_json(findings, checked_files=len(files),
                               rule_ids=rule_ids)
    if args.json_path == "-":
        print(payload)
    else:
        render_findings(findings)
        if args.format == "github":
            _render_github(findings)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json_path}", file=sys.stderr)
    return 1 if findings else 0
