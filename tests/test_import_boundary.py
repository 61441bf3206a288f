"""The declaration/execution import boundary, by mechanism not stopwatch.

Declaration (configs, plan, merge, render, spec registration, runner,
cache) is what every ``repro`` invocation may load; execution (the
simulator and everything a ``run_cell`` needs) loads on the first cell
the cache cannot serve.  Each CLI case runs ``cli.main`` in a fresh
interpreter and inspects that interpreter's ``sys.modules``.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
from importlib import import_module

import pytest

import repro
import repro.experiments
from repro.runner import all_specs

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
GOLDEN = os.path.join(REPO, "tests", "golden", "experiments_quick.out")

#: The execution side: nothing here may load before the first cache miss.
EXECUTION = ("repro.scenario", "repro.sim", "repro.net", "repro.grid",
             "repro.core", "repro.jdl", "repro.streaming", "repro.multiprog",
             "repro.baselines", "repro.workloads", "repro.obs",
             "concurrent.futures.process")

_DRIVER = """
import json, sys
from repro.experiments.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exit:
    code = exit.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded(modules, prefixes):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def child_env(src=SRC):
    env = dict(os.environ)  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_main(workdir, *argv):
    """(exit code, stdout, stderr, sys.modules) of ``cli.main(argv)`` run
    in a fresh interpreter."""
    report = workdir / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(report), *argv],
        capture_output=True, text=True, timeout=600, cwd=str(workdir),
        env=child_env())
    assert report.exists(), proc.stderr
    outcome = json.loads(report.read_text())
    report.unlink()
    return outcome["code"], proc.stdout, proc.stderr, outcome["modules"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.fixture
def cli(workdir):
    return lambda *argv: run_main(workdir, *argv)


@pytest.fixture(scope="module")
def warm_cache(workdir):
    """A cache holding every cell of ``run all --quick``, plus the cold
    run's stdout."""
    cache = str(workdir / "cache")
    code, cold, err, modules = run_main(
        workdir, "run", "all", "--quick", "--no-progress", "--cache-dir",
        cache)
    assert code == 0, err
    assert all(", 0 cached)" in line for line in statistics_lines(err))
    assert "repro.scenario" in modules
    return cache, cold


def statistics_lines(stderr):
    return [line for line in stderr.splitlines() if " cells (" in line]


class TestWarmRunLoadsNoSimulator:
    def test_fully_cached_run_all_stays_on_the_declaration_side(
            self, cli, warm_cache):
        cache, cold = warm_cache
        code, out, err, modules = cli("run", "all", "--quick",
                                      "--no-progress", "--cache-dir", cache)
        assert code == 0, err
        assert loaded(modules, EXECUTION) == []
        lines = statistics_lines(err)
        assert len(lines) == 11
        assert all("(0 computed" in line for line in lines)
        assert out == cold
        with open(GOLDEN) as fh:
            assert out == fh.read()
        # ``run all`` needs 6 of the 9 experiment modules, and numpy (the
        # merges' np.mean/np.std make the golden bytes) — nothing more.
        assert "numpy" in modules
        assert loaded(modules, ["repro.experiments.broker_modes",
                                "repro.experiments.chaos_drill",
                                "repro.experiments.scale_campaign"]) == []

    def test_cached_parallel_run_builds_no_pool(self, cli, warm_cache):
        cache, cold = warm_cache
        code, out, err, modules = cli("run", "all", "--quick", "--parallel",
                                      "2", "--no-progress", "--cache-dir",
                                      cache)
        assert code == 0, err
        assert loaded(modules, EXECUTION) == []
        assert out == cold

    def test_one_miss_loads_the_simulator_and_renders_the_cold_bytes(
            self, cli, warm_cache):
        cache, cold = warm_cache
        victim = os.path.join(cache, "fig8")
        os.remove(os.path.join(victim, sorted(os.listdir(victim))[0]))
        code, out, err, modules = cli("run", "all", "--quick",
                                      "--no-progress", "--cache-dir", cache)
        assert code == 0, err
        assert out == cold
        assert {"repro.scenario", "repro.sim.environment"} <= set(modules)
        computed = {line.split(":")[0]: "(0 computed" not in line
                    for line in statistics_lines(err)}
        assert [name for name, ran in computed.items() if ran] == ["fig8"]
        assert "fig8: 4 cells (1 computed, 3 cached)" in err


class TestSubcommandsThatTouchNoNumbers:
    def test_help_cache_ls_and_lint_load_neither_simulator_nor_numpy(
            self, cli, warm_cache):
        cache, _ = warm_cache
        for argv in (["--help"],
                     ["cache", "ls", "--cache-dir", cache],
                     ["cache", "ls", "--cells", "--cache-dir", cache],
                     ["lint", "--list-rules"]):
            code, out, err, modules = cli(*argv)
            assert code == 0, (argv, err)
            assert out, argv
            assert loaded(modules, EXECUTION + ("numpy",)) == [], argv

    def test_cache_ls_lists_what_the_warm_run_reads(self, cli, warm_cache):
        # ...so the test above is not passing on entries silently skipped
        # as unreadable: all 66 cells unpickle without numpy.
        cache, _ = warm_cache
        code, out, _, _ = cli("cache", "ls", "--cache-dir", cache)
        assert code == 0
        rows = [line.split("|") for line in out.splitlines()
                if "|" in line][1:]
        assert sum(int(row[2]) for row in rows) == 66

    def test_importing_the_packages_loads_nothing_else(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.experiments;"
             "print(sorted(m for m in sys.modules if m.startswith('repro')"
             " or m == 'numpy'))"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(
            ["repro", "repro._lazy", "repro.experiments"])


class TestFacades:
    @pytest.mark.parametrize("package", [repro, repro.experiments])
    def test_every_public_name_is_its_defining_modules_object(self, package):
        for name in package.__all__:
            if name == "__version__":
                continue
            defining = import_module(package._EXPORTS[name],
                                     package.__name__)
            assert getattr(package, name) is getattr(defining, name)

    def test_public_names_are_the_documented_ones(self):
        assert repro.__all__ == ["Calibration", "DEFAULT_CALIBRATION",
                                 "Scenario", "ScenarioHandle", "__version__"]
        assert repro.__version__ == "1.0.0"
        assert repro.experiments.__all__ == [
            "BrokerModesConfig", "BufferSweepConfig", "ChaosDrillConfig",
            "DegreeSweepConfig", "ExperimentResult", "Fig8Config",
            "HalfLifeSweepConfig", "PerformanceLossSweepConfig",
            "RetrySweepConfig", "SaturationConfig", "ScaleCampaignConfig",
            "SelectionScalingConfig", "ShapeCheck", "StreamingConfig",
            "Table1Config", "collect_series", "export_all", "export_result"]

    @pytest.mark.parametrize("package", [repro, repro.experiments])
    def test_dir_lists_them_and_star_import_binds_them(self, package):
        assert set(package.__all__) <= set(dir(package))
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    @pytest.mark.parametrize("package", [repro, repro.experiments])
    def test_unknown_attribute_names_the_module(self, package):
        with pytest.raises(AttributeError) as raised:
            package.no_such_name
        assert repr(package.__name__) in str(raised.value)
        assert "no_such_name" in str(raised.value)
        assert not hasattr(package, "no_such_name")

    def test_all_specs_is_the_fourteen_and_the_index_names_their_modules(
            self):
        specs = all_specs()
        assert sorted(specs) == sorted([
            "table1", "fig6", "fig7", "fig8", "selection-scaling",
            "fairshare-saturation", "ablation-buffer", "ablation-retry",
            "ablation-pl", "ablation-degree", "ablation-halflife",
            "broker-modes", "chaos-drill", "scale-campaign"])
        index = repro.experiments.SPEC_MODULES
        assert set(index) == set(specs)
        for experiment_id, spec in specs.items():
            assert spec.run_cell.__module__ == \
                "repro.experiments" + index[experiment_id]


#: The last commit before the boundary was drawn; its cache entries are
#: ``CACHE_VERSION`` 1 (no integrity digest).
PARENT = "82c6297ddd1eac93c9190d8b3f2a7e8f90b5637d"


@pytest.fixture(scope="module")
def parent_src(tmp_path_factory):
    """``src/`` of :data:`PARENT`, extracted with ``git archive``."""
    target = tmp_path_factory.mktemp("parent")
    try:
        archive = subprocess.run(
            ["git", "-C", REPO, "archive", "--format=tar", PARENT, "src"],
            capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"git unavailable: {exc}")
    if archive.returncode != 0:
        pytest.skip(f"commit {PARENT[:7]} is not in this checkout: "
                    f"{archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(str(target), filter="data")
    return str(target / "src")


def run_all_quick(src, cache, workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "all", "--quick",
         "--no-progress", "--cache-dir", cache],
        capture_output=True, text=True, timeout=600, cwd=str(workdir),
        env=child_env(src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, statistics_lines(proc.stderr)


class TestCacheVersionBump:
    """``CACHE_VERSION`` 2 put an integrity digest in front of every
    entry, so the two formats cannot serve each other — and must not
    trip over each other either: to one side the other's cache directory
    is simply empty (every cell computed, same bytes: ``cache_salt``s,
    seeds and the pickled class paths did not move), and afterwards each
    side is served from its own entries, sitting beside the other's."""

    @pytest.mark.parametrize("writer, reader", [("parent", "change"),
                                                ("change", "parent")])
    def test_other_sides_cache_is_a_miss(self, writer, reader, parent_src,
                                         tmp_path):
        src = {"parent": parent_src, "change": SRC}
        cache = str(tmp_path / "cache")
        written, lines = run_all_quick(src[writer], cache, tmp_path)
        assert len(lines) == 11
        assert all(", 0 cached)" in line for line in lines)
        computed, lines = run_all_quick(src[reader], cache, tmp_path)
        assert len(lines) == 11
        assert all(", 0 cached)" in line for line in lines), lines
        assert computed == written
        for side in (writer, reader):
            served, lines = run_all_quick(src[side], cache, tmp_path)
            assert all("(0 computed" in line for line in lines), lines
            assert served == written
