"""simlint's CLI surface and the seeded worker-purity defects.

Worker purity is checked at run time, not by lint: a cell must leave
``repro.*`` module state as it found it (``tests/test_worker_purity.py``
holds every registered cell to that, through :mod:`tests.module_state`).
``TestSeededDefects`` seeds one impure cell, which mutates a module dict,
rebinds a global and sets a class attribute, and pins that the detector
names each write.  The rest pins ``repro lint``'s surface (``--select``,
``--format github``, ``--audit-suppressions``, ``--exclude``) on the
per-file fixtures under ``tests/data/simlint``, the engine's
syntax-error pseudo-finding, and sanitizer daemon semantics inside pool
worker subprocesses.  The class and test names predate the runtime
check and are kept so the test ids stay stable.
"""

from __future__ import annotations

import os
import sys
import types

import pytest

from repro.analysis.cli import lint_main
from repro.analysis.engine import lint_files_detailed
from repro.analysis.rules import ALL_RULES
from repro.runner import ExperimentSpec
from repro.runner import spec as spec_module

from .module_state import cell_writes

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "data", "simlint")
#: Findings on the per-file fixtures: one per ``*_bad.py`` hazard.
FIXTURE_FINDINGS = 20

WORKERIZED = "repro.experiments.workerized"
#: A cell that writes module state three ways.
WORKERIZED_SOURCE = """
CACHE = {}
CALLS = 0


class Registry:
    last = None


def run_cell(config, key):
    global CALLS
    CACHE[key] = len(key)
    CALLS += 1
    Registry.last = key
    return key
"""

#: Every write of every call, by name.
PURITY_WRITES = [f"{WORKERIZED}.CACHE", f"{WORKERIZED}.CALLS",
                 f"{WORKERIZED}.Registry.last"]


def _seeded_writes(monkeypatch):
    """Load the seeded module as ``repro.experiments.workerized``,
    register it as an experiment and run its two cells through the
    worker entry, plain and under telemetry and chaos."""
    module = types.ModuleType(WORKERIZED)
    exec(compile(WORKERIZED_SOURCE, "workerized.py", "exec"),
         module.__dict__)
    monkeypatch.setitem(sys.modules, WORKERIZED, module)
    spec = ExperimentSpec(
        experiment_id="workerized", config_factory=lambda: None,
        plan=lambda config: [("a",), ("b",)], run_cell=module.run_cell,
        merge=lambda config, payloads: None)
    monkeypatch.setitem(spec_module._REGISTRY, spec.experiment_id, spec)
    return cell_writes(("workerized", None, key) for key in spec.plan(None))


# -- seeded defects ------------------------------------------------------
class TestSeededDefects:
    @pytest.fixture
    def writes(self, monkeypatch):
        return _seeded_writes(monkeypatch)

    def test_every_flow_rule_fires_on_the_fixture_tree(self, writes):
        # Every call of the seeded cell is charged with a write.
        assert len(writes) == 4
        assert all(writes.values())

    def test_worker_purity_flags_mutation_and_rebind(self, writes):
        names = set().union(*writes.values())
        assert f"{WORKERIZED}.CACHE" in names  # dict mutated in place
        assert f"{WORKERIZED}.CALLS" in names  # global rebound
        assert f"{WORKERIZED}.Registry.last" in names  # class attribute

    def test_layering_findings_keep_path_line_and_message(self, writes):
        # The exact names, per call and leg.  The second leg of a cell
        # re-stores the same key: the dict entry and the class attribute
        # already hold it, only the counter moves.
        assert writes == {
            "workerized/a [plain]": PURITY_WRITES,
            "workerized/a [telemetry+chaos]": [f"{WORKERIZED}.CALLS"],
            "workerized/b [plain]": PURITY_WRITES,
            "workerized/b [telemetry+chaos]": [f"{WORKERIZED}.CALLS"],
        }

    def test_findings_are_deterministic(self, writes, monkeypatch):
        assert _seeded_writes(monkeypatch) == writes


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
        assert lint_main(["src"]) == 0, capsys.readouterr().out
        assert capsys.readouterr().out.strip() == "simlint: clean"
        # Linting writes nothing: tier-1 leaves the checkout as found.
        assert cache_dir_listing() == before


# -- suppressions ---------------------------------------------------------
class TestFlowSuppressions:
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
        code = lint_main([FIXTURES])
        out = capsys.readouterr().out
        assert code == 1
        assert f"simlint: {FIXTURE_FINDINGS} finding(s)" in out

    def test_github_format_emits_error_annotations(self, capsys):
        lint_main([FIXTURES, "--format", "github"])
        out = capsys.readouterr().out
        assert out.count("::error file=") == FIXTURE_FINDINGS
        assert "title=simlint wallclock" in out

    @pytest.mark.parametrize("select", [",", " , ", ""])
    def test_select_of_no_rule_is_a_usage_error(self, select, capsys):
        # A select that names nothing must not lint nothing and pass.
        assert lint_main([FIXTURES, "--select", select]) == 2
        assert "names no simlint rule" in capsys.readouterr().err

    def test_select_flow_layer_dag_is_unknown(self, capsys):
        # Neither the layer map nor worker purity is a rule: both are
        # tier-1 tests.
        for rule_id in ("flow-layer-dag", "flow-worker-purity"):
            assert lint_main(["--select", rule_id, "src"]) == 2
            assert "unknown simlint rule" in capsys.readouterr().err
        assert lint_main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == len(ALL_RULES) == 10
        assert not any("flow-" in line for line in listed)

    def test_unknown_rule_lists_catalogs_and_exits_2(self, capsys):
        assert lint_main(["--select", "flow-nope", FIXTURES]) == 2
        err = capsys.readouterr().err
        assert "wallclock" in err and "determinism" in err

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
        code = lint_main([FIXTURES, "--exclude", FIXTURES])
        assert code == 2  # no files left


# -- engine edge cases (satellite) ----------------------------------------
class TestEngineEdgeCases:
    def test_syntax_error_summary_carries_path_and_line(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "bad.py").write_text("x = 1\ndef broken(:\n",
                                     encoding="utf-8")
        [result] = lint_files_detailed([str(tree / "bad.py")], ALL_RULES,
                                       root=str(tmp_path))
        [finding] = result.findings
        assert finding.rule == "syntax-error"
        assert finding.path == os.path.join("pkg", "bad.py")
        assert finding.line == 2


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
