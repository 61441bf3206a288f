"""Tests for the whole-program flows pass (``repro lint --flows``).

The fixture universe under ``tests/data/simlint/flows`` is a
repro-shaped package tree (never imported by Python) seeding the
worker-purity pair; these tests pin that both seeded defects are
detected at their exact path, line and message, plus suppression
handling, the CLI surface (``--flows``, ``--select``, ``--format
github``, ``--audit-suppressions``), and the engine's edge
cases (syntax-error pseudo-findings, unknown rule-id errors, sanitizer
daemon semantics inside pool worker subprocesses).  The layer map is
not a flow rule: ``tests/test_import_boundary.py`` checks it.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.analysis.cli import lint_main
from repro.analysis.flows import run_flows
from repro.analysis.flows.graph import module_name_for

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FLOWS_FIXTURES = os.path.join(HERE, "data", "simlint", "flows")
WORKERIZED = "repro/experiments/workerized.py"


def _fixture_report():
    return run_flows([FLOWS_FIXTURES], root=FLOWS_FIXTURES)


#: Every finding on the fixture tree as ``(path, line, message)``.
PURITY_FINDINGS = [
    (WORKERIZED, 10,
     "worker purity: _note mutates module global 'CACHE' "
     "(repro.experiments.workerized); reachable from worker entry "
     f"[pool submit at {WORKERIZED}:52] via run_cell -> _note"),
    (WORKERIZED, 14,
     "worker purity: _bump rebinds module global 'CALLS' "
     "(repro.experiments.workerized); reachable from worker entry "
     f"[pool submit at {WORKERIZED}:52] via run_cell -> _bump"),
]


def _pinned(report):
    return [(f.path.replace(os.sep, "/"), f.line, f.message)
            for f in report.findings]


# -- seeded fixture defects ----------------------------------------------
class TestSeededDefects:
    @pytest.fixture(scope="class")
    def report(self):
        return _fixture_report()

    def test_every_flow_rule_fires_on_the_fixture_tree(self, report):
        assert {f.rule for f in report.findings} == {"flow-worker-purity"}

    def test_worker_purity_flags_mutation_and_rebind(self, report):
        messages = [f.message for f in report.findings
                    if f.rule == "flow-worker-purity"]
        assert any("mutates module global 'CACHE'" in m for m in messages)
        assert any("rebinds module global 'CALLS'" in m for m in messages)
        # Findings name the worker entry and the call chain.
        assert any("run_cell -> _note" in m for m in messages)

    def test_layering_findings_keep_path_line_and_message(self, report):
        # Exact path, line and message of every finding.  None is a
        # layering finding: the layer map is checked by
        # tests/test_import_boundary.py, not by the flows pass.
        assert _pinned(report) == PURITY_FINDINGS
        assert not any("layer" in f.message for f in report.findings)

    def test_findings_are_deterministic(self, report):
        again = _fixture_report()
        assert ([f.to_dict() for f in report.findings]
                == [f.to_dict() for f in again.findings])


# -- the repo gate -------------------------------------------------------
class TestBaseline:
    """There is no baseline any more (a justified pragma is the one way
    to accept a finding); the class and test names are kept so the
    gate's test id stays stable."""

    def test_committed_repo_baseline_gates_src_clean(self, monkeypatch,
                                                     capsys):
        def cache_dir_listing():
            cache_dir = os.path.join(REPO_ROOT, ".repro-cache")
            return (sorted(os.listdir(cache_dir))
                    if os.path.isdir(cache_dir) else None)

        monkeypatch.chdir(REPO_ROOT)
        before = cache_dir_listing()
        assert lint_main(["src", "--flows"]) == 0, (
            capsys.readouterr().out)
        assert "flows: " in capsys.readouterr().err
        # The pass writes nothing: tier-1 leaves the checkout as found.
        assert cache_dir_listing() == before


# -- suppressions ---------------------------------------------------------
class TestFlowSuppressions:
    def test_pragma_silences_a_flow_finding(self, tmp_path):
        tree = tmp_path / "tree"
        shutil.copytree(FLOWS_FIXTURES, tree)
        target = tree / WORKERIZED
        src = target.read_text(encoding="utf-8").replace(
            "CACHE[key] = payload",
            "CACHE[key] = payload  # simlint: disable=flow-worker-purity "
            "-- fixture override")
        target.write_text(src, encoding="utf-8")
        report = run_flows([str(tree)], root=str(tree))
        # Exactly the one finding on that line moves to ``suppressed``.
        assert _pinned(report) == [
            f for f in PURITY_FINDINGS if "'CACHE'" not in f[2]]
        [silenced] = report.suppressed
        assert silenced.rule == "flow-worker-purity"
        assert (silenced.path, silenced.line) == (WORKERIZED, 10)

    def test_docstring_pragma_text_does_not_suppress(self):
        src = ('"""Doc mentioning  # simlint: disable-file=all -- nope\n'
               '"""\n'
               "import time\n"
               "t = time.time()\n")
        from repro.analysis import lint_source, rules_by_id
        findings = lint_source(src, "x.py", rules_by_id(["wallclock"]))
        assert [f.rule for f in findings] == ["wallclock"]


# -- CLI surface ----------------------------------------------------------
class TestFlowsCli:
    def test_flows_exit_one_on_fixture_defects(self, capsys):
        code = lint_main([FLOWS_FIXTURES, "--flows"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("[flow-worker-purity]") == len(PURITY_FINDINGS)

    def test_github_format_emits_error_annotations(self, capsys):
        lint_main([FLOWS_FIXTURES, "--flows", "--format", "github"])
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=simlint flow-worker-purity" in out

    def test_select_single_flow_rule(self, capsys):
        code = lint_main([FLOWS_FIXTURES, "--select", "flow-worker-purity"])
        out = capsys.readouterr().out
        assert code == 1
        # --select of the flow id runs the flows pass without --flows...
        assert out.count("[flow-worker-purity]") == len(PURITY_FINDINGS)
        for _, _, message in PURITY_FINDINGS:
            assert message.split(";")[0] in out
        # ...and a per-file id alone does not run it.
        assert lint_main([FLOWS_FIXTURES, "--select", "wallclock"]) == 0

    def test_select_flow_layer_dag_is_unknown(self, capsys):
        # The layer map is a tier-1 test, not a rule.
        assert lint_main(["--select", "flow-layer-dag", "src"]) == 2
        assert "unknown simlint rule" in capsys.readouterr().err
        assert lint_main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 11
        assert not any("flow-layer-dag" in line for line in listed)

    def test_unknown_rule_lists_catalogs_and_exits_2(self, capsys):
        assert lint_main(["--select", "flow-nope", "src"]) == 2
        err = capsys.readouterr().err
        assert "flow-worker-purity" in err and "wallclock" in err

    def test_list_rules_markdown_matches_committed_doc(self, capsys):
        assert lint_main(["--list-rules", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        committed = open(os.path.join(REPO_ROOT, "docs",
                                      "simlint-rules.md"),
                         encoding="utf-8").read()
        assert out.strip() == committed.strip(), (
            "docs/simlint-rules.md is stale — regenerate with "
            "`repro lint --list-rules --format markdown`")

    def test_audit_reports_stale_pragma(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "x = 1  # simlint: disable=wallclock -- nothing here\n",
            encoding="utf-8")
        assert lint_main([str(stale), "--audit-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "stale suppression [wallclock]" in out

    def test_audit_keeps_live_pragma(self, tmp_path, capsys):
        live = tmp_path / "live.py"
        live.write_text(
            "import time\n"
            "t = time.time()  # simlint: disable=wallclock -- test\n",
            encoding="utf-8")
        assert lint_main([str(live), "--audit-suppressions"]) == 0
        assert "0 stale" in capsys.readouterr().out

    def test_exclude_prefix_skips_files(self, capsys):
        # The fixture tree trips rules; excluding it leaves nothing.
        code = lint_main([FLOWS_FIXTURES, "--exclude", FLOWS_FIXTURES])
        assert code == 2  # no files left


# -- engine edge cases (satellite) ----------------------------------------
class TestEngineEdgeCases:
    def test_syntax_error_summary_carries_path_and_line(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "bad.py").write_text("x = 1\ndef broken(:\n",
                                     encoding="utf-8")
        report = run_flows([str(tree)], root=str(tmp_path))
        [finding] = report.findings
        assert finding.rule == "syntax-error"
        assert finding.path.endswith("pkg/bad.py".replace("/", os.sep)) \
            or finding.path.endswith("pkg/bad.py")
        assert finding.line == 2

    def test_module_name_derivation(self):
        path = os.path.join(FLOWS_FIXTURES, *WORKERIZED.split("/"))
        assert module_name_for(path) == "repro.experiments.workerized"
        init = os.path.join(FLOWS_FIXTURES, "repro", "experiments",
                            "__init__.py")
        assert module_name_for(init) == "repro.experiments"


# -- sanitizer daemon semantics inside pool workers (satellite) -----------
def _sanitizing_task(leak):
    """Builds a sanitized Environment inside the (possibly forked) pool
    worker and reports the audit outcome as pure data."""
    from repro.sim import Environment

    env = Environment(sanitize=True)

    def service():
        while True:
            yield env.timeout(1.0)

    env.process(service(), name="svc", daemon=True)  # exempt
    env.timer(name="heartbeat", daemon=True).arm(5.0)  # exempt

    def stuck():
        yield env.event()  # never fires -> alive-process leak

    if leak:
        env.process(stuck(), name="stuck")
    env.run(until=env.timeout(2.0))
    report = env.sanitizer.report()
    return {"clean": report.clean,
            "kinds": sorted(report.kinds()),
            "daemons_exempt": report.stats.get("daemons_exempt", 0)}


def _audit_twice(leak, workers):
    """Two audits, in-process (``workers == 1``) or through the runner
    engine's pool path (``ProcessPoolExecutor.submit``)."""
    if workers == 1:
        return [_sanitizing_task(leak) for _ in range(2)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sanitizing_task, leak) for _ in range(2)]
        return [future.result() for future in futures]


class TestSanitizerInConveyorWorkers:
    """Runs on a plain process pool; the class name predates the
    conveyor's removal and is kept so the test ids stay stable."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_daemon_semantics_hold_across_process_boundary(self, workers):
        for state in _audit_twice(False, workers):
            assert state["clean"], state
            assert state["daemons_exempt"] >= 1
        for state in _audit_twice(True, workers):
            assert not state["clean"]
            assert "alive-process" in state["kinds"]

    def test_serial_equals_parallel_verdicts(self):
        assert _audit_twice(True, 1) == _audit_twice(True, 2)
