"""Tests for the whole-program flows pass (``repro lint --flows``).

The fixture universe under ``tests/data/simlint/flows`` is a
repro-shaped package tree (never imported by Python) seeding one defect
per ``LayerMap`` declaration plus the worker-purity pair; these tests
pin that every seeded defect is detected at its exact path, line and
message — the layer-DAG violation with its *full* import chain — plus
suppression handling, the CLI surface (``--flows``, ``--select``,
``--format github``, ``--audit-suppressions``), and the satellite
engine edge cases (syntax-error pseudo-findings, unknown rule-id
errors, sanitizer daemon semantics inside pool worker subprocesses).
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.analysis.cli import lint_main
from repro.analysis.flows import (FLOW_RULES, REPRO_LAYERS,
                                  flow_rules_by_id, run_flows)
from repro.analysis.flows.graph import module_name_for

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FLOWS_FIXTURES = os.path.join(HERE, "data", "simlint", "flows")

FLOW_RULE_IDS = sorted(rule.id for rule in FLOW_RULES)


def _fixture_report():
    return run_flows([FLOWS_FIXTURES], root=FLOWS_FIXTURES)


def _by_rule(report):
    out = {}
    for finding in report.findings:
        out.setdefault(finding.rule, []).append(finding)
    return out


#: Every ``flow-layer-dag`` finding on the fixture tree as ``(path, line,
#: message)``: one seeded defect per ``LayerMap`` declaration (``ranks``,
#: ``isolated``/``observes``, ``factory_only``, ``purity`` — its fixture
#: breaks the allowlist and the self-containment half, and so commits a
#: second rank violation).
LAYERING_FINDINGS = [
    ("repro/core/stats.py", 8,
     "layer violation: repro.core.stats (layer 4) eagerly reaches "
     "repro.experiments.report (layer 6) via repro.core.stats -> "
     "repro.util.bridge -> repro.experiments.report"),
    ("repro/core/watcher.py", 3,
     "observed module repro.core.watcher eagerly imports repro.obs; "
     "observability must attach via hooks, not imports (use a "
     "function-level import if unavoidable)"),
    ("repro/experiments/direct_broker.py", 7,
     "direct CrossBroker(...) construction in "
     "repro.experiments.direct_broker; use make_broker() / "
     "Scenario(broker_mode=...) so the architecture stays configuration"),
    ("repro/sim/impure.py", 5,
     "kernel purity: repro.sim.impure imports 'threading' outside the "
     "substrate allowlist for repro.sim"),
    ("repro/sim/impure.py", 7,
     "kernel purity: repro.sim.impure imports repro.core.stats; the "
     "compiled lane requires repro.sim to be self-contained"),
    ("repro/sim/impure.py", 7,
     "layer violation: repro.sim.impure (layer 0) eagerly reaches "
     "repro.core.stats (layer 4) via repro.sim.impure -> "
     "repro.core.stats"),
]


def _layering(report):
    return [(f.path.replace(os.sep, "/"), f.line, f.message)
            for f in _by_rule(report).get("flow-layer-dag", [])]


# -- seeded fixture defects ----------------------------------------------
class TestSeededDefects:
    @pytest.fixture(scope="class")
    def report(self):
        return _fixture_report()

    def test_every_flow_rule_fires_on_the_fixture_tree(self, report):
        fired = {f.rule for f in report.findings}
        assert set(FLOW_RULE_IDS) <= fired, (
            f"rules without fixture coverage: "
            f"{set(FLOW_RULE_IDS) - fired}")

    def test_layer_dag_reports_the_full_import_chain(self, report):
        [finding] = [f for f in _by_rule(report)["flow-layer-dag"]
                     if "core/stats" in f.path]
        assert ("repro.core.stats -> repro.util.bridge -> "
                "repro.experiments.report") in finding.message
        assert "(layer 4)" in finding.message
        assert "(layer 6)" in finding.message
        assert finding.line > 0

    def test_layering_findings_keep_path_line_and_message(self, report):
        assert _layering(report) == LAYERING_FINDINGS

    def test_obs_isolation_fires_on_observed_layer(self, report):
        [finding] = [f for f in _by_rule(report)["flow-layer-dag"]
                     if f.path.endswith("core/watcher.py")]
        assert "eagerly imports repro.obs" in finding.message

    def test_sim_purity_flags_allowlist_and_cross_package(self, report):
        messages = [f.message for f in _by_rule(report)["flow-layer-dag"]
                    if f.message.startswith("kernel purity")]
        assert len(messages) == 2
        assert any("'threading'" in m for m in messages)
        assert any("repro.core.stats" in m for m in messages)

    def test_broker_factory_flags_direct_construction(self, report):
        [finding] = [f for f in _by_rule(report)["flow-layer-dag"]
                     if f.path.endswith("direct_broker.py")]
        assert "direct CrossBroker(...) construction" in finding.message

    def test_worker_purity_flags_mutation_and_rebind(self, report):
        messages = [f.message
                    for f in _by_rule(report)["flow-worker-purity"]]
        assert any("mutates module global 'CACHE'" in m for m in messages)
        assert any("rebinds module global 'CALLS'" in m for m in messages)
        # Findings name the worker entry and the call chain.
        assert any("run_cell -> _note" in m for m in messages)

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
        target = tree / "repro" / "core" / "watcher.py"
        src = target.read_text(encoding="utf-8").replace(
            "import repro.obs",
            "import repro.obs  # simlint: disable=flow-layer-dag "
            "-- fixture override")
        target.write_text(src, encoding="utf-8")
        report = run_flows([str(tree)], root=str(tree))
        # Exactly the one finding on that line moves to ``suppressed``.
        assert _layering(report) == [
            f for f in LAYERING_FINDINGS if "watcher" not in f[0]]
        [silenced] = report.suppressed
        assert silenced.rule == "flow-layer-dag"
        assert silenced.path.endswith("watcher.py")

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
        assert "flow-layer-dag" in out

    def test_github_format_emits_error_annotations(self, capsys):
        lint_main([FLOWS_FIXTURES, "--flows", "--format", "github"])
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=simlint flow-layer-dag" in out

    def test_select_single_flow_rule(self, capsys):
        code = lint_main([FLOWS_FIXTURES, "--select", "flow-layer-dag"])
        out = capsys.readouterr().out
        assert code == 1
        # --select of the one layering id returns all six findings...
        assert out.count("[flow-layer-dag]") == len(LAYERING_FINDINGS)
        for _, _, message in LAYERING_FINDINGS:
            assert message in out
        # ...and nothing from the other rule.
        assert "flow-worker-purity" not in out

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

    def test_flow_rules_by_id_unknown_lists_valid_ids(self):
        with pytest.raises(KeyError) as exc:
            flow_rules_by_id(["flow-bogus"])
        message = str(exc.value)
        for rule_id in FLOW_RULE_IDS:
            assert rule_id in message

    def test_module_name_derivation(self):
        path = os.path.join(FLOWS_FIXTURES, "repro", "core", "stats.py")
        assert module_name_for(path) == "repro.core.stats"
        init = os.path.join(FLOWS_FIXTURES, "repro", "core",
                            "__init__.py")
        assert module_name_for(init) == "repro.core"

    def test_layer_map_ranks_match_the_real_tree(self):
        assert REPRO_LAYERS.rank_of("repro.sim.events") == 0
        assert REPRO_LAYERS.rank_of("repro.core.broker") == 4
        assert REPRO_LAYERS.rank_of("repro.experiments.table1") == 6
        # The real-socket twin sits at the top: nothing under the
        # simulator may import it.
        assert REPRO_LAYERS.rank_of("repro.interposition.agent") \
            == max(REPRO_LAYERS.ranks.values())
        assert REPRO_LAYERS.rank_of("repro.obs.telemetry") is None
        assert REPRO_LAYERS.is_isolated("repro.obs.tracer")
        assert REPRO_LAYERS.rank_of("repro.analysis.engine") is None
        assert REPRO_LAYERS.rank_of("outside.module") is None


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
