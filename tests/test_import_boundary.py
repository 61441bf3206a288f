"""Import boundaries, by mechanism not stopwatch.

Declaration (configs, plan, merge, render, spec registration, runner,
cache) is what every ``repro`` invocation may load; execution (the
simulator and everything a ``run_cell`` needs) loads on the first cell
the cache cannot serve.  Each CLI case runs ``cli.main`` in a fresh
interpreter and inspects that interpreter's ``sys.modules``.

The layer map (:class:`TestLayerMap`) is checked the same way, over
what a bare ``import`` of each module loads: the transitive closure of
its module-level imports, read from the AST and held to a fresh
interpreter's ``sys.modules``.
"""

import ast
import glob
import io
import json
import os
import subprocess
import sys
import tarfile
from collections import deque
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
        # The default (auto) run had nothing to compute: no pool.
        assert loaded(modules, ["concurrent.futures",
                                "multiprocessing"]) == []
        lines = statistics_lines(err)
        assert len(lines) == 11
        assert all("(0 computed" in line for line in lines)
        assert out == cold
        with open(GOLDEN) as fh:
            assert out == fh.read()
        # ``run all`` needs 6 of the 8 experiment modules and nothing
        # more: the merges' float arithmetic follows numpy's order
        # without importing it.
        assert "numpy" not in modules
        assert loaded(modules, ["repro.experiments.broker_modes",
                                "repro.experiments.chaos_drill"]) == []

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
            "RetrySweepConfig", "SaturationConfig",
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
            "broker-modes", "chaos-drill"])
        index = repro.experiments.SPEC_MODULES
        assert set(index) == set(specs)
        for experiment_id, spec in specs.items():
            assert spec.run_cell.__module__ == \
                "repro.experiments" + index[experiment_id]


# -- the layer map -----------------------------------------------------------
#: The paper's stack, bottom up.  A module may load (through its
#: module-level imports, transitively) only modules of its own rank or
#: below; ranks follow the tree's actual dependency DAG.
RANKS = {
    # 0 — the substrate kernel (see also KERNEL_IMPORTS).
    "sim": 0,
    # 1 — leaf utilities: config codec, calibration, JDL, net model,
    #     metrics aggregation.
    "codec": 1, "calibration": 1, "jdl": 1, "net": 1, "metrics": 1,
    # 2 — the grid fabric (GRAM, LRMS, MDS) and result streaming.
    "grid": 2, "streaming": 2,
    # 3 — scheduling policy stacks.
    "multiprog": 3, "baselines": 3,
    # 4 — broker core and workload synthesis.
    "core": 4, "workloads": 4,
    # 5 — the runner and the scenario facade.
    "runner": 5, "scenario": 5,
    # 6 — the top: experiments, and the real-socket twin of the
    #     streaming layer (only an example drives it, and nothing under
    #     the simulator may import it).
    "experiments": 6, "interposition": 6,
}
#: Loadable from anywhere, ranked nowhere: the observer, the analysis
#: package and the package's own plumbing.
UNRANKED = ("obs", "analysis", "_lazy", "__main__")
#: The layers ``repro.obs`` observes through the ``Environment`` hooks:
#: none of them may load it, directly or through another package.
OBSERVED = ("sim", "net", "grid", "streaming", "multiprog", "core")
#: The only imports a ``repro.sim`` module may make outside ``repro.sim``,
#: so the compiled lane sees no foreign imports.  ``gc``: a run pauses
#: the cyclic collector; ``hashlib``: rng.py names its streams by
#: blake2b; ``contextlib``: trace_span's no-op context.
KERNEL_IMPORTS = frozenset({
    "__future__", "collections", "contextlib", "dataclasses", "enum",
    "functools", "gc", "hashlib", "heapq", "itertools", "math", "os",
    "types", "typing", "warnings", "weakref", "numpy"})
#: Experiments and examples build brokers through ``make_broker`` (so
#: ``broker_mode`` stays data) and reach steering through the adapters
#: ``control_scope`` yields, never by calling these.
FACTORY_ONLY = frozenset({"CrossBroker", "PullBroker", "DataAwareBroker",
                          "SteeringAdapter"})
FACTORY_USERS = (os.path.join(SRC, "repro", "experiments", "**", "*.py"),
           os.path.join(REPO, "examples", "*.py"))


def ours(name):
    return name == "repro" or name.startswith("repro.")


def package_of(module):
    """``core`` for ``repro.core.broker``; None for ``repro`` itself."""
    return module.split(".")[1] if "." in module else None


def rank(module):
    return RANKS.get(package_of(module)) if ours(module) else None


def eager_imports(body, package):
    """Dotted targets of the imports that run when ``body`` runs at
    module level: function bodies and ``if TYPE_CHECKING:`` blocks do
    not.  ``from a import b`` targets both ``a`` and ``a.b``."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                up = package.rsplit(".", node.level - 1)[0]
                base = f"{up}.{base}" if base else up
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in (
                getattr(node.test, "id", None),
                getattr(node.test, "attr", None)):
            yield from eager_imports(node.orelse, package)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from eager_imports(getattr(node, field, ()), package)


def import_graph(src=SRC):
    """Module -> what its module-level imports load directly: ``repro``
    modules (``a.b.c`` loads ``a`` and ``a.b`` too, and a module its
    own package) and the top-level names of everything else."""
    files = {}
    for path in glob.glob(os.path.join(src, "repro", "**", "*.py"),
                          recursive=True):
        parts = os.path.relpath(path, src)[:-len(".py")].split(os.sep)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        files[module] = path
    graph = {}
    for module, path in files.items():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        package = (module if path.endswith("__init__.py")
                   else module.rpartition(".")[0])
        deps = {module.rpartition(".")[0]} & files.keys()
        for target in eager_imports(tree.body, package):
            parts = target.split(".")
            deps |= ({".".join(parts[:i]) for i in range(1, len(parts) + 1)}
                     & files.keys() if ours(target) else {parts[0]})
        graph[module] = deps - {module}
    return graph


def load_order(graph, module):
    """Every ``repro`` module a bare ``import module`` loads, mapped to
    the module whose import loaded it, in breadth-first order."""
    via = {module: None}
    queue = deque([module])
    while queue:
        current = queue.popleft()
        for dep in sorted(graph[current]):
            if dep in graph and dep not in via:
                via[dep] = current
                queue.append(dep)
    return via


def first_chain(graph, module, bad):
    """The shortest import chain from ``module`` to a module it loads
    that ``bad`` accepts ("a -> b -> c"), or None."""
    via = load_order(graph, module)
    hit = next((m for m in via if bad(m)), None)
    links = []
    while hit is not None:
        links.append(hit)
        hit = via[hit]
    return " -> ".join(reversed(links)) or None


def shortest_first(lines):
    """One bad import fails every module that loads it: list the
    shortest chain, the bad import itself, first."""
    return sorted(lines, key=lambda line: (line.count(" -> "), line))


def rank_violations(graph):
    out = []
    for module in graph:
        own = rank(module)
        chain = own is not None and first_chain(
            graph, module, lambda m: (rank(m) or 0) > own)
        if chain:
            top = chain.rsplit(" -> ", 1)[1]
            out.append(f"{module} (layer {own}) loads {top} "
                       f"(layer {rank(top)}): {chain}")
    return shortest_first(out)


def observer_violations(graph):
    return shortest_first(
        f"{module} loads the observer: {chain}"
        for module in graph if package_of(module) in OBSERVED
        for chain in [first_chain(graph, module,
                                  lambda m: package_of(m) == "obs")]
        if chain)


def kernel_violations(graph):
    out = []
    for module in sorted(graph):
        if package_of(module) != "sim":
            continue
        out += [f"{module} imports {name}" for name in sorted(graph[module])
                if not ours(name) and name not in KERNEL_IMPORTS]
        chain = first_chain(graph, module, lambda m: package_of(m) not in (
            "sim", "_lazy", None))
        if chain:
            out.append(f"{module} loads outside the kernel: {chain}")
    return out


def factory_violations(paths):
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        out += [f"{os.path.relpath(path, REPO)}:{node.lineno}: {name}(...)"
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                for name in [getattr(node.func, "id", None)
                             or getattr(node.func, "attr", None)]
                if name in FACTORY_ONLY]
    return out


@pytest.fixture(scope="module")
def graph():
    return import_graph()


def with_import(graph, module, target):
    mutated = {name: set(deps) for name, deps in graph.items()}
    mutated[module].add(target)
    return mutated


class TestLayerMap:
    def test_the_table_ranks_every_package(self, graph):
        assert {package_of(m) for m in graph} - {None} == \
            set(RANKS) | set(UNRANKED)
        assert rank("repro.sim.events") == 0
        assert rank("repro.core.broker") == 4
        assert rank("repro.experiments.table1") == 6
        assert rank("repro.interposition.agent") == max(RANKS.values())
        for unranked in ("repro.obs.telemetry", "repro.analysis.engine",
                         "repro", "outside.module"):
            assert rank(unranked) is None

    def test_no_module_loads_a_higher_layer(self, graph):
        assert rank_violations(graph) == []

    def test_observed_layers_never_load_the_observer(self, graph):
        assert observer_violations(graph) == []

    def test_the_kernel_loads_only_itself_and_its_allowlist(self, graph):
        assert kernel_violations(graph) == []

    def test_experiments_and_examples_use_the_factory(self):
        files = [glob.glob(pattern, recursive=True)
                 for pattern in FACTORY_USERS]
        assert all(files)  # neither glob matches nothing
        assert factory_violations(sorted(sum(files, []))) == []

    def test_the_closure_is_what_a_fresh_interpreter_loads(self, graph):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, repro.core.steering;"
             "print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0, proc.stderr
        modules = [m for m in json.loads(proc.stdout) if ours(m)]
        assert "repro.workloads.mixes" in modules
        assert loaded(modules, ["repro.obs"]) == []
        assert sorted(load_order(graph, "repro.core.steering")) == modules

    def test_function_and_type_checking_imports_load_nothing(self):
        tree = ast.parse("from typing import TYPE_CHECKING\n"
                         "if TYPE_CHECKING:\n"
                         "    import repro.runner\n"
                         "def later():\n"
                         "    from ..runner import engine\n")
        assert list(eager_imports(tree.body, "repro.grid")) == [
            "typing", "typing.TYPE_CHECKING"]

    @pytest.mark.parametrize("module, target, check, expected", [
        ("repro.grid.site", "repro.runner", rank_violations,
         "repro.grid.site (layer 2) loads repro.runner (layer 5): "
         "repro.grid.site -> repro.runner"),
        ("repro.net.rpc", "repro.obs", observer_violations,
         "repro.net.rpc loads the observer: repro.net.rpc -> repro.obs"),
        ("repro.workloads.mixes", "repro.obs.telemetry",
         observer_violations,
         "repro.core.steering loads the observer: repro.core.steering -> "),
        ("repro.sim.events", "threading", kernel_violations,
         "repro.sim.events imports threading"),
        ("repro.sim.events", "repro.core", kernel_violations,
         "repro.sim.events loads outside the kernel: repro.sim.events -> "
         "repro.core"),
    ], ids=["upward", "observer", "observer-via-workloads",
            "kernel-stdlib", "kernel-repro"])
    def test_a_seeded_import_is_reported(self, graph, module, target,
                                         check, expected):
        assert check(graph) == []
        assert any(line.startswith(expected)
                   for line in check(with_import(graph, module, target)))

    def test_a_seeded_construction_is_reported(self, tmp_path):
        example = tmp_path / "example.py"
        example.write_text("def build(env):\n"
                          "    return broker.CrossBroker(env)\n",
                          encoding="utf-8")
        [line] = factory_violations([str(example)])
        assert line.endswith("example.py:2: CrossBroker(...)")


def module_imports(body):
    """``(line, bound name)`` of every import in a module's own body
    (``if``/``try`` blocks included, function bodies not)."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            yield from ((node.lineno, alias.asname or alias.name.split(".")[0])
                        for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                yield from module_imports(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                yield from module_imports(handler.body)


def names_read(tree):
    """Every ``ast.Name``, every ``__all__`` entry, and every name inside
    a string annotation."""
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant))
    for annotation in annotations:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names.update(n.id for n in ast.walk(ast.parse(c.value))
                             if isinstance(n, ast.Name))
    return names


def test_every_module_level_import_is_read():
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        read = names_read(tree)
        unused += [f"{os.path.relpath(path, REPO)}:{line}: {name}"
                   for line, name in module_imports(tree.body)
                   if name not in read]
    assert unused == []


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
