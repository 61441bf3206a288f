"""simlint rule-engine tests against the fixture corpus.

``tests/data/simlint/`` holds three kinds of fixture:

* ``<rule>_bad.py`` — code that must trip exactly that rule;
* ``<rule>_suppressed.py`` — the same hazards carrying
  ``# simlint: disable=...`` markers (every marker with a ``-- reason``
  tail), which must silence the rule completely;
* ``clean.py`` — idiomatic sim code that every rule must pass.

One test per rule checks fires + suppression, plus engine-level tests
for suppression parsing, JSON output, the syntax-error pseudo-finding,
and the ``repro lint`` CLI exit-code contract.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (
    ALL_RULES,
    findings_to_json,
    lint_file,
    lint_paths,
    lint_source,
    rules_by_id,
)
from repro.analysis.cli import lint_main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "data", "simlint")

RULE_IDS = sorted(rule.id for rule in ALL_RULES)

#: rule id -> minimum number of distinct findings in its bad fixture.
#: (Cross-module properties are tier-1 tests, not rules: the layer map
#: in ``test_import_boundary.py``, worker purity in
#: ``test_worker_purity.py``.)
EXPECTED_MIN = {
    "set-iteration": 3,
    "unseeded-random": 2,
    "wallclock": 3,
    "id-hash-order": 1,
    "environ-read": 2,
    "raw-timeout-loop": 2,
    "kernel-queue-push": 3,
    "trigger-in-init": 1,
    "bare-except": 1,
    "swallowed-error": 2,
}


def _fixture(name: str) -> str:
    path = os.path.join(FIXTURES, name)
    if os.path.exists(path):
        return path
    raise FileNotFoundError(name)


def test_rule_catalog_is_complete():
    assert len(ALL_RULES) >= 8
    assert len(set(RULE_IDS)) == len(ALL_RULES), "duplicate rule ids"
    assert set(EXPECTED_MIN) == set(RULE_IDS), (
        "fixture table out of sync with the rule catalog")
    for rule in ALL_RULES:
        assert rule.category in ("determinism", "kernel")
        assert rule.summary


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_fires(rule_id):
    stem = rule_id.replace("-", "_")
    findings = lint_file(_fixture(f"{stem}_bad.py"), rules_by_id([rule_id]))
    fired = [f for f in findings if f.rule == rule_id]
    assert len(fired) >= EXPECTED_MIN[rule_id], (
        f"{rule_id}: expected >= {EXPECTED_MIN[rule_id]} findings, "
        f"got {[f.render() for f in findings]}")
    for finding in fired:
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_suppressed_fixture_is_silent(rule_id):
    stem = rule_id.replace("-", "_")
    findings = lint_file(_fixture(f"{stem}_suppressed.py"),
                         rules_by_id([rule_id]))
    assert findings == [], (
        f"{rule_id}: suppressions not honored: "
        f"{[f.render() for f in findings]}")


def test_clean_fixture_passes_every_rule():
    findings = lint_file(_fixture("clean.py"), ALL_RULES)
    assert findings == [], [f.render() for f in findings]


def test_bad_fixtures_do_not_cross_fire():
    """Each bad fixture trips only its own rule (fixture isolation)."""
    for rule_id in RULE_IDS:
        stem = rule_id.replace("-", "_")
        findings = lint_file(_fixture(f"{stem}_bad.py"), ALL_RULES)
        extra = {f.rule for f in findings} - {rule_id}
        assert not extra, f"{stem}_bad.py also trips {extra}"


# -- engine behaviour ----------------------------------------------------
def test_inline_suppression_with_reason_tail():
    src = ("import os\n"
           "x = os.getenv('A')  "
           "# simlint: disable=environ-read -- sanctioned config read\n")
    assert lint_source(src, "x.py", rules_by_id(["environ-read"])) == []


def test_inline_suppression_without_marker_fires():
    src = "import os\nx = os.getenv('A')\n"
    findings = lint_source(src, "x.py", rules_by_id(["environ-read"]))
    assert [f.rule for f in findings] == ["environ-read"]


def test_file_level_suppression_covers_all_lines():
    src = ("# simlint: disable-file=wallclock -- fixture\n"
           "import time\n"
           "a = time.time()\n"
           "b = time.monotonic()\n")
    assert lint_source(src, "x.py", rules_by_id(["wallclock"])) == []


def test_suppression_is_rule_specific():
    """A disable for one rule must not silence another on the same line."""
    src = ("import os, time\n"
           "x = (os.getenv('A'), time.time())  "
           "# simlint: disable=environ-read -- config\n")
    findings = lint_source(
        src, "x.py", rules_by_id(["environ-read", "wallclock"]))
    assert [f.rule for f in findings] == ["wallclock"]


def test_syntax_error_becomes_finding():
    findings = lint_source("def broken(:\n", "bad.py", ALL_RULES)
    assert [f.rule for f in findings] == ["syntax-error"]


def test_kernel_files_are_exempt_from_queue_rule():
    src = "def f(env, e):\n    env._fifo.append((0.0, 0, 1, e))\n"
    hot = lint_source(src, "repro/core/broker.py",
                      rules_by_id(["kernel-queue-push"]))
    assert [f.rule for f in hot] == ["kernel-queue-push"]
    kernel = lint_source(src, "repro/sim/events.py",
                         rules_by_id(["kernel-queue-push"]))
    assert kernel == []


def test_obs_hook_read_is_clean():
    """The sanctioned `t = env.telemetry` pattern never fires."""
    src = ("def f(env):\n"
           "    t = env.telemetry\n"
           "    if t is not None:\n"
           "        t.counter('x').inc()\n")
    assert lint_source(src, "repro/core/broker.py", ALL_RULES) == []


def test_findings_json_shape():
    findings = lint_file(_fixture("bare_except_bad.py"),
                         rules_by_id(["bare-except"]))
    payload = json.loads(findings_to_json(
        findings, checked_files=1, rule_ids=["bare-except"]))
    assert payload["tool"] == "simlint"
    assert payload["count"] == len(findings) >= 1
    first = payload["findings"][0]
    assert {"rule", "category", "path", "line", "col",
            "message"} <= set(first)


def test_lint_paths_order_is_deterministic():
    a = lint_paths([FIXTURES], ALL_RULES)
    b = lint_paths([FIXTURES], ALL_RULES)
    assert [f.to_dict() for f in a] == [f.to_dict() for f in b]
    assert a, "fixture corpus should produce findings"


# -- CLI contract --------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(clean)]) == 0
    assert "simlint: clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\nx = os.getenv('A')\n", encoding="utf-8")
    assert lint_main([str(dirty)]) == 1
    assert "environ-read" in capsys.readouterr().out

    assert lint_main(["--select", "no-such-rule", str(clean)]) == 2
    assert lint_main([str(tmp_path / "nothing-here")]) == 2


def test_cli_json_report(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\nx = os.getenv('A')\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert lint_main([str(dirty), "--json", str(report)]) == 1
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "environ-read"


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


def test_repo_gate_is_green():
    """The acceptance gate: `repro lint src` on the final tree is clean."""
    repo_src = os.path.join(os.path.dirname(HERE), "src")
    findings = lint_paths([repo_src], ALL_RULES)
    assert findings == [], [f.render() for f in findings]
