"""CLI smoke tests: `repro run`, `repro cache`, `repro trace`, `repro
serve`, the table.

Each test drives the real entry point (``python -m repro ...``) in a
subprocess, asserting exit codes and the stdout/stderr split that the
determinism contract demands (renders on stdout, progress/statistics on
stderr).  The fastest experiment (``ablation-halflife``: three pure-math
cells, no simulation world) keeps these subprocess round trips cheap.
"""

import contextlib
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.experiments.cli import SUBCOMMANDS, main
from repro.experiments.servecmd import serve_main
from repro.runner import run_experiment

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
GOLDEN = os.path.join(REPO, "tests", "golden")
CHAOS = os.path.join(REPO, "tests", "data", "chaos", "drain_burst.json")


def cli_env(**extra):
    env = dict(os.environ)  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def run_cli(*args, cwd=None, module="repro", timeout=600):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, timeout=timeout,
        cwd=cwd or REPO, env=cli_env())


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
        assert list(SUBCOMMANDS) == ["run", "cache", "trace", "serve",
                                     "lint"]

    @pytest.mark.parametrize("argv", [["table1", "--quick"], ["all"], [],
                                      ["bench"], ["top", "table1"]])
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
        cleared = run_cli("cache", "clear", "fig6", "--cache-dir", cache)
        assert cleared.returncode == 0
        assert "removed 0 cached cell(s)" in cleared.stdout
        assert "ablation-halflife" in run_cli(
            "cache", "ls", "--cache-dir", cache).stdout

    @pytest.mark.parametrize("name", ["..", "outside", "fig66"])
    def test_clear_of_a_name_not_in_the_cache_is_a_usage_error(
            self, tmp_path, name):
        cache = tmp_path / "cache"
        cache.mkdir()
        outside = tmp_path / "outside"
        outside.mkdir()
        keep = [tmp_path / "model.pkl", outside / "model.pkl"]
        for path in keep:
            path.write_bytes(b"not a cache entry")
        if name == "outside":
            name = str(outside)
        cleared = run_cli("cache", "clear", name, "--cache-dir", str(cache))
        assert cleared.returncode == 2
        assert "unknown experiment" in cleared.stderr
        assert cleared.stdout == ""
        assert all(path.exists() for path in keep)


class TestTraceCommand:
    def test_trace_single_method(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli("trace", "--method", "idle", "--jobs", "1",
                       "--sites", "3", "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Per-phase latency breakdown" in proc.stdout
        assert out.exists()

    @pytest.mark.parametrize("argv", [["--sites", "0"], ["--jobs", "-2"]],
                             ids=["no-sites", "negative-jobs"])
    def test_a_size_below_one_is_a_usage_error(self, argv, capsys):
        # Was: --sites 0 a traceback and exit 1, --jobs -2 exit 0 having
        # traced nothing.
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", *argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[0]}: must be >= 1" in captured.err

    @pytest.mark.parametrize("flag", ["--json", "--csv", "--chrome"])
    def test_an_output_in_a_missing_directory_is_a_usage_error(
            self, flag, tmp_path, capsys):
        # Was: a traceback and exit 1, after the whole traced run.
        missing = tmp_path / "missing.d"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", flag, str(missing / "out.json")])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: no directory {str(missing)!r}" \
            in captured.err

    def test_a_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err


class TestRunTelemetry:
    """``repro run --telemetry``: the telemetry tables on stderr and the
    merged snapshot under ``--export``; stdout is what it is without."""

    def test_tables_on_stderr_and_snapshot_in_export(self, tmp_path,
                                                      monkeypatch):
        # Serial from fresh id counters on both sides: job and message ids
        # are process globals that key RNG streams (ROADMAP 1 W2(a)), so
        # table1's telemetry depends on what the process ran before.
        args = ("run", "table1", "--quick", "--no-cache", "--parallel", "1",
                "--export")
        plain = run_cli(*args, str(tmp_path / "plain"))
        observed = run_cli(*args, str(tmp_path / "observed"), "--telemetry")
        assert plain.returncode == observed.returncode == 0, observed.stderr
        assert observed.stdout == plain.stdout
        assert "Telemetry counters — table1" in observed.stderr
        assert "Time series — table1" in observed.stderr
        monkeypatch.setattr("repro.jdl.job._job_counter", itertools.count(1))
        monkeypatch.setattr("repro.streaming.messages._seq_counter",
                            itertools.count(1))
        merged = run_experiment("table1", quick=True,
                                telemetry=True).data["telemetry"]["merged"]
        with open(tmp_path / "observed" / "table1_telemetry.json",
                  encoding="utf-8") as fh:
            assert json.load(fh) == merged
        assert not (tmp_path / "plain" / "table1_telemetry.json").exists()


class TestServeCommand:
    @pytest.mark.parametrize("golden, argv", [
        ("serve_europe_chaos.out", ["europe", "--chaos", CHAOS]),
        ("serve_campus_gap01.out", ["campus", "--gap", "0.1"]),
    ])
    def test_summary_matches_golden(self, golden, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert serve_main(argv) == 0
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
            assert out.getvalue() == fh.read()

    @pytest.mark.parametrize("argv, message", [
        (["--sites", "0"], "--sites: must be >= 1"),
        (["--nodes", "0"], "--nodes: must be >= 1"),
        (["--jobs", "-2"], "--jobs: must be >= 1"),
        (["--seed", "-1"], "--seed: must be >= 0"),
        (["--gap", "-1"], "--gap: must be >= 0"),
        (["--runtime", "-1"], "--runtime: must be >= 0"),
    ], ids=["no-sites", "no-nodes", "negative-jobs", "negative-seed",
            "negative-gap", "negative-runtime"])
    def test_out_of_range_input_is_a_usage_error(self, argv, message,
                                                 capsys):
        # Was: a traceback (--sites 0, --seed -1), or exit 0 with every
        # job failed (--nodes 0, --runtime -1) or none run (--jobs -2).
        with pytest.raises(SystemExit) as exit_info:
            serve_main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {message}" in captured.err


def _chaos_file(tmp_path, kind):
    """A ``--chaos`` argument that cannot be replayed."""
    if kind == "missing":
        return str(tmp_path / "missing.json")
    verb = {"unknown-verb": "explode", "pause": "pause"}[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"version": 1, "actions": [
        {"at": 5.0, "verb": verb}]}), encoding="utf-8")
    return str(path)


class TestBadChaosFile:
    """A bad ``--chaos`` file is a one-line usage error naming the file —
    never a traceback, and never a run that holds (the 5 s timeout)."""

    @pytest.mark.parametrize("kind", ["missing", "unknown-verb", "pause"])
    @pytest.mark.parametrize("command", [
        ["run", "fig8", "--quick", "--no-cache"], ["serve", "campus"]])
    def test_exits_2_naming_the_file(self, tmp_path, command, kind):
        path = _chaos_file(tmp_path, kind)
        proc = run_cli(*command, "--chaos", path, timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = proc.stderr.splitlines()[-1]
        assert error.startswith(f"repro {command[0]}: error: --chaos {path}")


class TestVerbThatCannotApply:
    """A schedule whose verb cannot apply to the world it steers (an
    unknown site) is reported like a bad file: one error line naming the
    action, exit 2, serial and pooled alike."""

    @pytest.mark.parametrize("command, site", [
        (["run", "fig8", "--quick", "--no-cache"], "site00"),
        (["run", "fig8", "--quick", "--no-cache", "--parallel", "2"],
         "site00"),
        (["serve", "campus"], "nowhere"),
    ], ids=["run", "run-parallel", "serve"])
    def test_exits_2_naming_the_action(self, tmp_path, command, site):
        path = tmp_path / "bad-site.json"
        path.write_text(json.dumps({"version": 1, "actions": [
            {"at": 30, "verb": "drain_site", "site": site}]}),
            encoding="utf-8")
        proc = run_cli(*command, "--chaos", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = proc.stderr.splitlines()[-1]
        assert error.startswith(
            f"repro {command[0]}: error: --chaos {path}: chaos action "
            f"drain_site at t=30: unknown site {site!r}; known: ")


class TestClosedStdout:
    """`repro ... | head`: a reader that leaves early is not an error.
    The read end is closed before the first byte is written."""

    def run_closed(self, *args, unbuffered=False):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = cli_env(PYTHONUNBUFFERED="1") if unbuffered else cli_env()
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120, cwd=REPO,
                env=env)
        finally:
            os.close(write_end)

    def test_run(self):
        # Unbuffered, the first render line meets the closed pipe before
        # the runner statistics reach stderr.
        proc = self.run_closed("run", "ablation-halflife", "--quick",
                               "--no-cache", "--no-progress",
                               unbuffered=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_serve(self):
        # Buffered: the pipe error surfaces when cli.main flushes.
        proc = self.run_closed("serve", "europe", "--chaos", CHAOS)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestInterrupt:
    """Ctrl-C reaches the whole process group: one stderr line, exit
    130, and every cell finished before it is served to the re-run."""

    @pytest.mark.parametrize("mode", [[], ["--parallel", "1"],
                                      ["--parallel", "2"]],
                             ids=["auto", "in-process", "pool"])
    def test_sigint_then_rerun(self, tmp_path, mode):
        args = ["run", "all", "--quick", "--cache-dir",
                str(tmp_path / "cache"), *mode]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, cwd=REPO, env=cli_env(),
            start_new_session=True)
        seen = []
        try:
            for line in proc.stderr:
                seen.append(line)
                if ": computed in " in line:
                    os.killpg(proc.pid, signal.SIGINT)
                    break
            _, rest = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:  # hung: leave no process behind
                os.killpg(proc.pid, signal.SIGKILL)
        err = "".join(seen) + rest
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "repro run: interrupted"

        rerun = run_cli(*args)
        assert rerun.returncode == 0, rerun.stderr
        with open(os.path.join(GOLDEN, "experiments_quick.out")) as fh:
            assert rerun.stdout == fh.read()
        cached = re.findall(r" cells \(\d+ computed, (\d+) cached\)",
                            rerun.stderr)
        assert len(cached) == 11
        assert sum(map(int, cached)) >= 1
