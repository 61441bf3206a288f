"""CLI smoke tests: `repro run`, `repro cache`, `repro trace`, the table.

Each test drives the real entry point (``python -m repro ...``) in a
subprocess, asserting exit codes and the stdout/stderr split that the
determinism contract demands (renders on stdout, progress/statistics on
stderr).  The fastest experiment (``ablation-halflife``: three pure-math
cells, no simulation world) keeps these subprocess round trips cheap.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments.cli import SUBCOMMANDS, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_cli(*args, cwd=None, module="repro"):
    env = dict(os.environ)  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, timeout=600,
        cwd=cwd or REPO, env=env)


class TestRunCommand:
    def test_run_quick_exits_zero(self, tmp_path):
        proc = run_cli("run", "ablation-halflife", "--quick",
                       "--cache-dir", str(tmp_path / "cache"))
        assert proc.returncode == 0, proc.stderr
        assert "== Priority recovery vs. fair-share half-life ==" \
            in proc.stdout
        assert "ALL SHAPE CHECKS PASSED" in proc.stdout
        # Runner statistics go to stderr, never stdout.
        assert "runner statistics" in proc.stderr
        assert "runner statistics" not in proc.stdout

    def test_parallel_stdout_matches_serial(self, tmp_path):
        serial = run_cli("run", "ablation-halflife", "--quick", "--no-cache")
        parallel = run_cli("run", "ablation-halflife", "--quick",
                           "--no-cache", "--parallel", "2")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_second_invocation_hits_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_cli("run", "ablation-halflife", "--quick",
                        "--cache-dir", cache)
        second = run_cli("run", "ablation-halflife", "--quick",
                         "--cache-dir", cache)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert "(0 computed, 3 cached)" in second.stderr

    def test_legacy_invocation_matches_run(self, tmp_path):
        # ``python -m repro.experiments`` is the same front door as
        # ``python -m repro``: same subcommands, and a bare experiment
        # name (the removed second driver) is a usage error.
        args = ("run", "ablation-halflife", "--quick", "--no-cache")
        same = run_cli(*args, module="repro.experiments")
        assert same.returncode == 0
        assert same.stdout == run_cli(*args).stdout
        bare = run_cli("ablation-halflife", "--quick",
                       module="repro.experiments")
        assert bare.returncode == 2
        assert bare.stdout == "" and "repro run" in bare.stderr

    def test_unknown_experiment_fails(self):
        proc = run_cli("run", "no-such-experiment", "--no-cache")
        assert proc.returncode != 0
        assert "unknown experiment" in proc.stderr

    def test_write_md_report(self, tmp_path):
        md = tmp_path / "report.md"
        proc = run_cli("run", "ablation-halflife", "--quick", "--no-cache",
                       "--write-md", str(md))
        assert proc.returncode == 0, proc.stderr
        body = md.read_text()
        assert "Priority recovery vs. fair-share half-life" in body
        assert "paper vs. reproduction" in body


class TestSubcommandTable:
    """The CLI contract: one table, one entry point, no bare names."""

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_every_subcommand_dispatches(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0
        assert f"repro {name}" in capsys.readouterr().out

    def test_table_is_the_seven_subcommands(self):
        assert list(SUBCOMMANDS) == ["run", "cache", "trace", "top", "serve",
                                     "scale", "lint"]

    @pytest.mark.parametrize("argv", [["table1", "--quick"], ["all"], [],
                                      ["bench"]])
    def test_bare_experiment_name_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "repro run" in captured.err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_is_the_usage_line_on_stdout(self, flag, capsys):
        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\n") == 1
        assert captured.out.startswith("usage: repro {run,cache,")

    def test_negative_parallel_is_an_argparse_error(self, capsys):
        # Was: silently ran serial and reported parallel=1.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "ablation-halflife", "--quick", "--no-cache",
                  "--parallel", "-3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --parallel" in captured.err and "-3" in captured.err

    def test_one_entry_point(self):
        import repro.__main__
        import repro.experiments.__main__

        assert repro.__main__.main is main
        assert repro.experiments.__main__.main is main
        with open(os.path.join(REPO, "pyproject.toml")) as fh:
            assert 'repro = "repro.experiments.cli:main"' in fh.read()


class TestCacheCommand:
    def test_ls_empty_cache(self, tmp_path):
        proc = run_cli("cache", "ls", "--cache-dir", str(tmp_path / "nope"))
        assert proc.returncode == 0
        assert "(cache is empty)" in proc.stdout

    def test_ls_and_clear_after_run(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert run_cli("run", "ablation-halflife", "--quick",
                       "--cache-dir", cache).returncode == 0
        ls = run_cli("cache", "ls", "--cache-dir", cache)
        assert ls.returncode == 0
        assert "ablation-halflife" in ls.stdout

        cells = run_cli("cache", "ls", "--cells", "--cache-dir", cache)
        assert cells.returncode == 0
        assert cells.stdout.count("ablation-halflife") >= 3

        cleared = run_cli("cache", "clear", "--cache-dir", cache)
        assert cleared.returncode == 0
        assert "removed 3 cached cell(s)" in cleared.stdout

        again = run_cli("cache", "ls", "--cache-dir", cache)
        assert "(cache is empty)" in again.stdout

    def test_clear_single_experiment(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_cli("run", "ablation-halflife", "--quick", "--cache-dir", cache)
        cleared = run_cli("cache", "clear", "other-experiment",
                          "--cache-dir", cache)
        assert cleared.returncode == 0
        assert "removed 0 cached cell(s)" in cleared.stdout


class TestTraceCommand:
    def test_trace_single_method(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli("trace", "--method", "idle", "--jobs", "1",
                       "--sites", "3", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Per-phase latency breakdown" in proc.stdout
        assert out.exists()
