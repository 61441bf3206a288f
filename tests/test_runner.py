"""The sharded runner: determinism, caching, config codecs, Scenario.

The runner's contract is that *how* cells are executed (serially, in a
process pool, or loaded from the cache) can never change *what* an
experiment reports.  These tests pin that contract:

* serial vs ``parallel=2`` renders are identical;
* a second cached run recomputes zero cells and renders identically;
* per-cell RNG depends only on (config, cell key), not shard order;
* every experiment config's key dict is every field but the calibration,
  which the cache key fingerprints itself;
* cache keys are stable across processes and sensitive to semantic
  config changes only;
* one worker pool per run: the cells of every requested experiment go
  through a single FIFO queue, whatever order they complete in;
* a cell is a collection epoch: no collector pass starts inside one, and
  the collector is left as the caller had it.
"""

import collections
import concurrent.futures
import dataclasses
import gc
import os
import pickle
import queue
import random
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from repro import Scenario
from repro.experiments.ablations import HalfLifeSweepConfig
from repro.experiments.table1 import Table1Config
from repro.runner import (
    ExperimentSpec,
    ResultCache,
    all_specs,
    cache_key,
    engine,
    get_spec,
    run_experiment,
    run_experiments,
    spec as spec_module,
)

#: A tiny but multi-cell configuration for engine tests.
def tiny_table1():
    return Table1Config(jobs_per_method=2, n_sites=3, scenarios=("campus",))


class TestEngineDeterminism:
    def test_table1_serial_and_parallel_render_identically(self):
        serial = run_experiment("table1", tiny_table1(), parallel=1)
        parallel = run_experiment("table1", tiny_table1(), parallel=4)
        assert serial.render() == parallel.render()

    def test_fig6_serial_and_parallel_render_identically(self):
        from repro.experiments.streaming_overhead import StreamingConfig

        def config():
            return StreamingConfig(scenario="campus", sequences=15)

        serial = run_experiment("fig6", config(), parallel=1)
        parallel = run_experiment("fig6", config(), parallel=4)
        assert serial.render() == parallel.render()

    def test_stats_live_outside_rendered_output(self):
        result = run_experiment("ablation-halflife", quick=True)
        stats = result.data["runner"]
        assert stats.cells_total == stats.cells_computed > 0
        # Wall-clock numbers never leak into the deterministic render.
        assert f"{stats.wall_seconds:.2f}" or True
        assert "runner" not in result.render()

    def test_cell_payload_independent_of_execution_order(self):
        # Run one cell in isolation vs as part of the full plan: identical.
        spec = get_spec("ablation-halflife")
        config = spec.make_config(quick=True)
        cells = spec.plan(config)
        alone = spec.run_cell(config, cells[-1])
        in_order = {key: spec.run_cell(config, key) for key in cells}
        assert in_order[cells[-1]] == alone

    def test_parallel_zero_auto_sizes(self, monkeypatch, tmp_path):
        # Stats report the pool a run built, or 1: --parallel 8 builds a
        # pool of 3 for three cells, and auto on one CPU builds none.
        result = run_experiment("ablation-halflife", quick=True, parallel=8)
        assert result.data["runner"].parallel == 3
        cpu_max = tmp_path / "cpu.max"
        monkeypatch.setattr(engine, "CPU_MAX", str(cpu_max))  # absent
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        result = run_experiment("ablation-halflife", quick=True, parallel=0)
        assert result.data["runner"].parallel == 1
        # The CPUs this process may run on, not the CPUs that exist...
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert engine.default_parallelism() == 3
        # ...capped by a cgroup v2 CPU quota, rounded up...
        for line, expected in [("150000 100000", 2), ("50000 100000", 1),
                               ("800000 100000", 3), ("max 100000", 3)]:
            cpu_max.write_text(line + "\n")
            assert engine.default_parallelism() == expected, line
        # ...and cpu_count() where the platform has no affinity call.
        cpu_max.unlink()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert engine.default_parallelism() == 64


TRIO = ["table1", "fig6", "ablation-halflife"]


def renders(results):
    return [result.render() for result in results]


def planned(experiment_ids):
    """Every quick cell of these experiments, request-then-plan order."""
    cells = []
    for experiment_id in experiment_ids:
        spec = get_spec(experiment_id)
        cells += [(experiment_id, key)
                  for key in spec.plan(spec.make_config(quick=True))]
    return cells


class ReversedPool:
    """In-process stand-in for the process pool (patched in together
    with the engine's completion queue): ``submit`` only queues, and
    every ``get`` from an empty queue runs the *most recently* submitted
    call still pending — completion order is the exact reverse of
    submission order."""

    constructed = []

    def __init__(self, max_workers, initializer=None):
        self.max_workers = max_workers
        self.calls = {}  # future -> (fn, args), in submission order
        self.submitted = []
        ReversedPool.constructed.append(self)

    def submit(self, fn, *args):
        future = Future()
        self.calls[future] = (fn, args)
        self.submitted.append((args[0], args[2]))  # experiment id, cell
        return future

    def run_last(self):
        future = next(f for f in reversed(self.calls) if not f.done())
        fn, args = self.calls[future]
        future.set_result(fn(*args))  # its done-callback queues it

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = (wait, cancel_futures)


class ReversedQueue:
    """The engine's completion queue, driving :class:`ReversedPool`."""

    def __init__(self):
        self.items = collections.deque()

    def put(self, future):
        self.items.append(future)

    def get(self):
        if not self.items:
            ReversedPool.constructed[-1].run_last()
        return self.items.popleft()


@pytest.fixture
def reversed_pool(monkeypatch):
    monkeypatch.setattr(ReversedPool, "constructed", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ReversedPool)
    monkeypatch.setattr(queue, "SimpleQueue", ReversedQueue)
    return ReversedPool.constructed


class TestOnePoolPerRun:
    """The scheduler, deterministically: one FIFO queue per run, results
    in request order, whatever order the cells complete in."""

    def test_reverse_completion_yields_request_order_and_serial_bytes(
            self, reversed_pool):
        serial = list(run_experiments(TRIO, quick=True))
        assert reversed_pool == []  # parallel=1 builds no executor
        pooled = list(run_experiments(TRIO, quick=True, parallel=2))
        assert [r.data["runner"].experiment_id for r in pooled] == TRIO
        assert renders(pooled) == renders(serial)
        [pool] = reversed_pool  # exactly one executor for three experiments
        assert pool.shut_down == (True, True)

    def test_submission_is_request_then_plan_order(self, reversed_pool):
        list(run_experiments(TRIO, quick=True, parallel=2))
        [pool] = reversed_pool
        assert pool.submitted == planned(TRIO)
        assert pool.max_workers == 2

    def test_fully_cached_run_builds_no_executor(self, reversed_pool,
                                                 tmp_path):
        cache = ResultCache(str(tmp_path))
        first = list(run_experiments(TRIO, quick=True, cache=cache))
        again = list(run_experiments(TRIO, quick=True, cache=cache,
                                     parallel=2))
        assert reversed_pool == []
        assert all(r.data["runner"].cells_computed == 0 for r in again)
        assert all(r.data["runner"].parallel == 1 for r in again)
        assert renders(again) == renders(first)

    def test_progress_counts_per_experiment_under_interleaving(
            self, reversed_pool):
        lines = []
        results = list(run_experiments(TRIO, quick=True, parallel=2,
                                       progress=lines.append))
        # Completions are routed on arrival: the last experiment's cells
        # report first (reverse completion), each line counting within
        # its own experiment.
        assert lines[0].startswith(f"[{TRIO[-1]}]")
        for result in results:
            stats = result.data["runner"]
            mine = [line for line in lines
                    if line.startswith(f"[{stats.experiment_id}] ")]
            assert [line.rsplit(" ", 1)[1] for line in mine] == [
                f"({k}/{stats.cells_total})"
                for k in range(1, stats.cells_total + 1)]

    def test_wall_seconds_sum_to_the_run_wall(self, reversed_pool):
        t0 = time.perf_counter()
        results = list(run_experiments(TRIO, quick=True, parallel=2))
        wall = time.perf_counter() - t0
        walls = [r.data["runner"].wall_seconds for r in results]
        assert all(w >= 0 for w in walls)
        assert sum(walls) == pytest.approx(wall, rel=0.05)

    def test_real_pool_equals_serial_empty_and_half_cached(self, tmp_path):
        serial = renders(run_experiments(TRIO, quick=True))
        cache = ResultCache(str(tmp_path))
        assert renders(run_experiments(TRIO, quick=True, parallel=2,
                                       cache=cache)) == serial
        # Drop every other stored cell: a half-populated cache.
        for i, entry in enumerate(list(cache.entries())):
            if i % 2:
                os.remove(entry.path)
        half = list(run_experiments(TRIO, quick=True, parallel=2,
                                    cache=cache))
        assert renders(half) == serial
        assert all(0 < r.data["runner"].cells_cached
                   < r.data["runner"].cells_total for r in half)

    def test_real_pool_telemetry_snapshots_equal_serial(self):
        # fig8 stands in for table1: brokered cells name RNG streams after
        # a process-wide job counter (ARCHITECTURE "Known history
        # dependence"), so their raw series differ with the worker's
        # history on any pool, today's included; renders round it away.
        trio = ["fig8"] + TRIO[1:]

        def merged(parallel):
            return [r.data["telemetry"]["merged"] for r in run_experiments(
                trio, quick=True, parallel=parallel, telemetry=True)]

        assert merged(2) == merged(1)

    def test_run_all_parallel_builds_exactly_one_pool(self, monkeypatch,
                                                      capsys):
        from repro.experiments.cli import run_main

        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert run_main(["all", "--quick", "--no-cache", "--no-progress",
                         "--parallel", "2"]) == 0
        assert len(built) == 1
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "experiments_quick.out")
        with open(golden) as fh:
            assert capsys.readouterr().out == fh.read()


class TestAutoDefault:
    """``parallel=0`` (the CLI default): a pool of the usable CPUs from
    the start, so one CPU runs in process.  Two CPUs unless a test pins
    fewer."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch, tmp_path):
        """Pin the CPUs ``default_parallelism`` sees (no cgroup quota)."""
        monkeypatch.setattr(engine, "CPU_MAX", str(tmp_path / "absent"))

        def pin(count):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(count)), raising=False)

        pin(2)
        return pin

    @pytest.mark.parametrize("count", [1, 2])
    def test_auto_is_a_pool_of_the_usable_cpus(self, cpus, reversed_pool,
                                               count):
        serial = renders(run_experiments(TRIO, quick=True))
        cpus(count)
        auto = list(run_experiments(TRIO, quick=True, parallel=0))
        assert renders(auto) == serial
        assert [r.data["runner"].parallel for r in auto] == [count] * 3
        if count == 1:
            assert reversed_pool == []
        else:
            [pool] = reversed_pool
            assert pool.max_workers == 2
            assert pool.submitted == planned(TRIO)

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_default_run_all_builds_exactly_one_pool(
            self, monkeypatch, capsys, telemetry):
        from repro.experiments.cli import run_main

        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        argv = ["all", "--quick", "--no-cache", "--no-progress"]
        assert run_main(argv + ["--telemetry"] * telemetry) == 0
        assert len(built) == 1
        # The golden is the --parallel 1 render (CI diffs both against it).
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "experiments_quick.out")
        with open(golden) as fh:
            assert capsys.readouterr().out == fh.read()


class TestInterruptedPoolStart:
    """Ctrl-C while the pool starts: the half-fed pool is shut down with
    its queued cells cancelled, and SIGINT is not left blocked."""

    @pytest.mark.parametrize("how", ["raised", "signalled"])
    def test_pool_is_shut_down(self, monkeypatch, reversed_pool, how):
        masks = []

        class InterruptedPool(ReversedPool):
            def submit(self, fn, *args):
                # What a worker forked from here would inherit.
                masks.append(signal.pthread_sigmask(signal.SIG_BLOCK, []))
                if how == "signalled":
                    # Sent to this thread: held until every cell is in.
                    signal.pthread_kill(threading.get_ident(),
                                        signal.SIGINT)
                elif self.submitted:
                    raise KeyboardInterrupt
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            list(run_experiments(TRIO, quick=True, parallel=2))
        [pool] = reversed_pool
        assert pool.shut_down == (True, True)
        expected = len(planned(TRIO)) if how == "signalled" else 1
        assert len(pool.submitted) == expected
        assert all(signal.SIGINT in mask for mask in masks)
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, set())
        assert signal.SIGINT not in blocked


def _slow_cell(config, key):
    """Cell 0 returns at once; every other cell takes a while."""
    if key != ("0",):
        time.sleep(0.5)
    return key[0]


class TestInterruptWhileWaiting:
    """Ctrl-C while the parent waits for cells: the parent holds no
    future's lock then (it waits on a queue its done-callbacks feed),
    so the pool's shutdown cannot hang cancelling the queued cells."""

    def test_pool_is_shut_down_within_seconds(self, monkeypatch):
        spec = ExperimentSpec(
            experiment_id="throwaway-slow",
            config_factory=lambda: None,
            plan=lambda config: [(str(i),) for i in range(40)],
            run_cell=_slow_cell,
            merge=lambda config, payloads: None)
        monkeypatch.setitem(spec_module._REGISTRY, spec.experiment_id, spec)
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                self.shut_down = (wait, cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        main, timers = threading.get_ident(), []

        def interrupt_after_first_cell(line):
            # The parent is back in its wait long before this fires.
            if not timers:
                timers.append(threading.Timer(
                    0.1, signal.pthread_kill, (main, signal.SIGINT)))
                timers[0].start()

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec.experiment_id, parallel=2,
                           progress=interrupt_after_first_cell)
        assert time.perf_counter() - started < 5.0
        timers[0].join(timeout=5.0)
        assert not timers[0].is_alive()
        # Recorded once shutdown() returned: the workers are joined.
        [pool] = pools
        assert pool.shut_down == (True, True)


class TestPoolFallback:
    """Only a pool that cannot be built falls back to serial execution;
    any other ``OSError`` surfaces as itself."""

    def test_unavailable_pool_renders_the_same_bytes_serially(
            self, monkeypatch):
        def no_pool(max_workers, initializer):
            raise PermissionError(13, "no semaphores here")

        serial = renders(run_experiments(TRIO, quick=True))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        lines = []
        fallen = list(run_experiments(TRIO, quick=True, parallel=2,
                                      progress=lines.append))
        assert renders(fallen) == serial
        # Said once per run, not once per experiment.
        assert sum("pool unavailable" in line for line in lines) == 1

    def test_cache_write_error_surfaces_as_itself(self, tmp_path):
        (tmp_path / "notadir").write_text("")
        lines = []
        with pytest.raises(OSError) as raised:
            run_experiment("ablation-halflife", quick=True, parallel=2,
                           cache=str(tmp_path / "notadir" / "x"),
                           progress=lines.append)
        assert isinstance(raised.value, NotADirectoryError)
        assert raised.value.__context__ is None  # one error, unchained
        assert not any("pool unavailable" in line for line in lines)


@dataclasses.dataclass
class ThrowawayConfig:
    marker_dir: str
    cells: int = 12


def _throwaway_cell(config, key):
    """Leave a marker, then: cell 0 returns at once, cell 1 fails after
    cell 0 is surely in, every other cell takes a while."""
    open(os.path.join(config.marker_dir, key[0]), "w").close()
    if key == ("1",):
        time.sleep(0.3)
        raise RuntimeError("cell 1 failed")
    if key != ("0",):
        time.sleep(0.2)
    return key[0]


class TestFailingCell:
    def test_failure_stops_the_run_and_keeps_finished_cells(
            self, monkeypatch, tmp_path):
        spec = ExperimentSpec(
            experiment_id="throwaway-failing",
            config_factory=lambda: None,
            plan=lambda config: [(str(i),) for i in range(config.cells)],
            run_cell=_throwaway_cell,
            merge=lambda config, payloads: None)
        monkeypatch.setitem(spec_module._REGISTRY, spec.experiment_id, spec)
        markers = tmp_path / "markers"
        markers.mkdir()
        config = ThrowawayConfig(marker_dir=str(markers))
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(RuntimeError, match="cell 1 failed"):
            run_experiment(spec.experiment_id, config, parallel=2,
                           cache=cache)
        ran = {path.name for path in markers.iterdir()}
        # Cells still queued when the failure surfaced were cancelled
        # (the pool itself holds at most workers + 1 calls in flight).
        assert {"0", "1"} <= ran and len(ran) < config.cells
        assert not ran & {"9", "10", "11"}
        # ...and the cell that had already finished was stored on arrival.
        record = cache.get(spec, config, ("0",))
        assert record is not None and record["payload"] == "0"
        assert cache.get(spec, config, ("11",)) is None


class TestCollectionEpoch:
    """The collector is paused for the extent of a cell (and of a run
    outside any cell) and left exactly as the caller had it."""

    @staticmethod
    def register(monkeypatch, experiment_id, run_cell, **fields):
        spec = dataclasses.replace(
            get_spec(experiment_id), run_cell=run_cell, **fields)
        monkeypatch.setitem(spec_module._REGISTRY, spec.experiment_id, spec)

    def test_no_collection_starts_while_a_table1_cell_drains(
            self, monkeypatch, collections_started):
        run_cell = get_spec("table1").run_cell
        per_cell = []

        def probed(config, key):
            before = len(collections_started)
            payload = run_cell(config, key)
            per_cell.append(len(collections_started) - before)
            return payload

        self.register(monkeypatch, "table1", probed)
        run_experiment("table1", quick=True)
        assert per_cell == [0] * 8
        assert collections_started  # back on between and after the cells

    def test_no_collection_starts_while_a_scenario_day_runs(
            self, monkeypatch, collections_started):
        from repro.sim import Environment

        from .test_event_budget import scenario_day

        run, during = Environment.run, []

        def probed(env, until=None):
            # The young pass the previous run left pending would start at
            # the next tracked allocation — run()'s own `until` event.
            gc.collect(0)
            before = len(collections_started)
            try:
                return run(env, until)
            finally:
                during.append(len(collections_started) - before)

        monkeypatch.setattr(Environment, "run", probed)
        scenario_day()
        assert during == [0, 0]
        assert collections_started  # back on between and after the runs

    def test_state_is_restored_after_run_experiment(self, collector):
        run_experiment("fig8", quick=True)
        assert gc.isenabled() is collector

    def test_state_is_restored_after_a_failing_cell(self, monkeypatch,
                                                    collector):
        def failing(config, key):
            raise RuntimeError(f"cell {key} failed")

        self.register(monkeypatch, "fig8", failing)
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment("fig8", quick=True)
        assert gc.isenabled() is collector

    def test_a_run_nested_in_a_cell_ends_no_epoch(self, monkeypatch,
                                                  collector):
        from repro.sim import Environment

        seen = []

        def nested(config, key):
            seen.append(gc.isenabled())
            env = Environment()
            env.timeout(1)
            env.run()
            seen.append(gc.isenabled())
            return key

        self.register(monkeypatch, "fig8", nested,
                      merge=lambda config, payloads: SimpleNamespace(data={}))
        run_experiment("fig8", quick=True)
        assert seen and not any(seen)
        assert gc.isenabled() is collector


class TestResultCache:
    def test_second_run_recomputes_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = run_experiment("ablation-halflife", quick=True, cache=cache)
        second = run_experiment("ablation-halflife", quick=True, cache=cache)
        assert first.data["runner"].cells_computed > 0
        assert second.data["runner"].cells_computed == 0
        assert second.data["runner"].cells_cached == \
            first.data["runner"].cells_total
        assert first.render() == second.render()

    def test_cache_accepts_directory_path(self, tmp_path):
        run_experiment("ablation-halflife", quick=True,
                       cache=str(tmp_path / "cells"))
        cache = ResultCache(str(tmp_path / "cells"))
        assert sum(1 for _ in cache.entries()) > 0

    def test_quick_and_full_configs_never_share_entries(self, tmp_path):
        spec = get_spec("table1")
        quick = spec.make_config(quick=True)
        full = spec.make_config(quick=False)
        assert quick.jobs_per_method != full.jobs_per_method
        cell = spec.plan(quick)[0]
        assert cache_key(spec, quick, cell) != cache_key(spec, full, cell)

    def test_calibration_changes_invalidate(self):
        spec = get_spec("table1")
        a = tiny_table1()
        b = tiny_table1()
        cal = b.calibration
        b.calibration = dataclasses.replace(
            cal, ssh=dataclasses.replace(
                cal.ssh, session_setup=cal.ssh.session_setup + 1.0))
        cell = spec.plan(a)[0]
        assert cache_key(spec, a, cell) != cache_key(spec, b, cell)

    def test_cell_identity_checked_on_load(self, tmp_path):
        spec = get_spec("ablation-halflife")
        config = spec.make_config(quick=True)
        cells = spec.plan(config)
        cache = ResultCache(str(tmp_path))
        cache.put(spec, config, cells[0], {"x": 1}, 0.1)
        loaded = cache.get(spec, config, cells[0])
        assert loaded is not None and loaded["payload"] == {"x": 1}
        assert cache.get(spec, config, cells[1]) is None

    def test_clear_and_summary(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_experiment("ablation-halflife", quick=True, cache=cache)
        rows = cache.summary()
        assert rows and rows[0]["experiment"] == "ablation-halflife"
        removed = cache.clear("ablation-halflife")
        assert removed == rows[0]["cells"]
        assert cache.summary() == []


class TestDamagedCacheEntry:
    """A damaged entry is a miss — recomputed and overwritten — never a
    crash, and never a hit: every entry carries an integrity digest, so
    damage that would still unpickle (a bit flipped inside a float) is
    not served with altered numbers."""

    #: Unpickles to ``UnicodeDecodeError``, which the fixed exception
    #: list ``get`` used to catch did not name.
    BAD_UTF8 = b"\x80\x04\x8c\x02\xff\xfe."

    @staticmethod
    def damage(rng, blob):
        mode = rng.choice(["flip", "flip", "flip", "truncate", "garbage"])
        if mode == "truncate":
            return blob[:rng.randrange(len(blob))]
        if mode == "garbage":
            return rng.randbytes(rng.randrange(1, 2 * len(blob)))
        out = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)

    def test_seeded_fuzz_get_and_ls_never_raise(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        targets = []
        for name, config in (("fig8", None), ("table1", tiny_table1())):
            result = run_experiment(name, config, quick=True, cache=cache)
            spec = get_spec(name)
            config = config or spec.make_config(quick=True)
            assert result.data["runner"].cells_computed == len(
                spec.plan(config))
            targets += [(spec, config, key, cache._path(
                name, cache_key(spec, config, key)))
                for key in spec.plan(config)]
        rng = random.Random(20060925)  # simlint: disable=unseeded-random -- a seeded fuzz driver for host-side bytes, not sim state
        unpickled = 0
        for trial in range(120):
            spec, config, key, path = targets[trial % len(targets)]
            with open(path, "rb") as fh:
                pristine = fh.read()
            damaged = self.damage(rng, pristine)
            assert damaged != pristine
            try:
                pickle.loads(damaged[16:])
                unpickled += 1
            except Exception:  # noqa: BLE001 - nearly anything, see get()
                pass
            with open(path, "wb") as fh:
                fh.write(damaged)
            try:
                record = cache.get(spec, config, key)  # must not raise
                listed = [entry.path for entry in cache.entries()]
            finally:
                with open(path, "wb") as fh:
                    fh.write(pristine)
            assert record is None, (trial, key)
            assert path not in listed and len(listed) == len(targets) - 1
        # About a quarter of the trials at this seed are bit flips inside
        # float payload bytes: without the digest they load cleanly and
        # were served as hits (ROADMAP 5c).
        assert unpickled >= 20, unpickled
        assert all(cache.get(spec, config, key) is not None
                   for spec, config, key, _ in targets)

    def test_clear_removes_entries_that_no_longer_read(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_experiment("fig8", quick=True, cache=cache)
        [row] = cache.summary()
        victim = next(cache.entries()).path
        with open(victim, "wb") as fh:
            fh.write(self.BAD_UTF8)  # e.g. an entry of an older format
        assert cache.summary()[0]["cells"] == row["cells"] - 1
        assert cache.clear() == row["cells"]
        assert not os.path.exists(victim)

    def test_run_recomputes_exactly_the_damaged_cell(self, tmp_path, capsys):
        from repro.experiments.cli import run_main

        with pytest.raises(UnicodeDecodeError):
            pickle.loads(self.BAD_UTF8)
        cache_dir = str(tmp_path / "cache")
        argv = ["fig8", "table1", "--quick", "--no-progress"]
        assert run_main(argv + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert run_main(argv + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        spec = get_spec("fig8")
        config = spec.make_config(quick=True)
        victim = spec.plan(config)[2]
        cache = ResultCache(cache_dir)
        path = cache._path("fig8", cache_key(spec, config, victim))
        with open(path, "wb") as fh:
            fh.write(self.BAD_UTF8)
        assert cache.get(spec, config, victim) is None

        assert run_main(argv + ["--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "fig8: 4 cells (1 computed, 3 cached)" in captured.err
        assert "table1: 8 cells (0 computed, 8 cached)" in captured.err
        # ...and the damaged entry was overwritten with a good one.
        assert cache.get(spec, config, victim)["payload"] is not None


class TestProgressCounter:
    """``(done/total)`` counts every satisfied cell, this one included."""

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_last_line_of_a_three_cell_run_reads_three_of_three(
            self, parallel):
        lines = []
        run_experiment("ablation-halflife", quick=True, parallel=parallel,
                       progress=lines.append)
        assert [line.rsplit(" ", 1)[1] for line in lines] == [
            "(1/3)", "(2/3)", "(3/3)"]

    def test_half_cached_run_counts_cached_cells_too(self, tmp_path):
        spec = get_spec("ablation-halflife")
        config = spec.make_config(quick=True)
        first = spec.plan(config)[0]
        cache = ResultCache(str(tmp_path))
        cache.put(spec, config, first, spec.run_cell(config, first), 0.1)
        lines = []
        run_experiment("ablation-halflife", config, cache=cache,
                       progress=lines.append)
        assert "cached" in lines[0]
        assert [line.rsplit(" ", 1)[1] for line in lines[1:]] == [
            "(2/3)", "(3/3)"]


class TestTelemetryDeterminism:
    """The merged telemetry snapshot is identical across serial,
    parallel, and cache-served executions (plan-order merge)."""

    EXPERIMENT = "fig8"

    def _merged(self, **kwargs):
        result = run_experiment(self.EXPERIMENT, quick=True,
                                telemetry=True, **kwargs)
        return result.data["telemetry"]["merged"]

    def test_serial_and_parallel_snapshots_identical(self):
        assert self._merged(parallel=1) == self._merged(parallel=4)

    def test_cache_hit_replays_identical_snapshot(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        computed = self._merged(cache=cache)
        replayed = self._merged(cache=cache)
        assert computed == replayed
        # The second run really was served from the cache.
        result = run_experiment(self.EXPERIMENT, quick=True,
                                telemetry=True, cache=cache)
        assert result.data["runner"].cells_computed == 0

    def test_render_identical_with_and_without_telemetry(self):
        plain = run_experiment(self.EXPERIMENT, quick=True)
        telemetered = run_experiment(self.EXPERIMENT, quick=True,
                                     telemetry=True)
        assert plain.render() == telemetered.render()
        assert "telemetry" not in plain.data
        assert "telemetry" in telemetered.data

    def test_hit_without_snapshot_is_a_miss_when_telemetry_requested(
            self, tmp_path):
        cache = ResultCache(str(tmp_path))
        # Populate the cache *without* telemetry...
        run_experiment(self.EXPERIMENT, quick=True, cache=cache)
        # ...then request telemetry: every cell must be re-simulated so
        # the run still yields complete metrics.
        result = run_experiment(self.EXPERIMENT, quick=True, cache=cache,
                                telemetry=True)
        stats = result.data["runner"]
        assert stats.cells_cached == 0
        assert stats.cells_computed == stats.cells_total
        merged = result.data["telemetry"]["merged"]
        assert merged["counters"], "snapshot should not be empty"
        # The re-simulated records now carry snapshots: next telemetry
        # run is all cache hits and merges the same snapshot.
        again = run_experiment(self.EXPERIMENT, quick=True, cache=cache,
                               telemetry=True)
        assert again.data["runner"].cells_computed == 0
        assert again.data["telemetry"]["merged"] == merged

    def test_telemetry_snapshot_rides_the_cell_record(self, tmp_path):
        spec = get_spec("ablation-halflife")
        config = spec.make_config(quick=True)
        cell = spec.plan(config)[0]
        cache = ResultCache(str(tmp_path))
        snap = {"counters": {"c": 1.0}, "gauges": {},
                "histograms": {}, "series": {}}
        cache.put(spec, config, cell, {"x": 1}, 0.1, telemetry=snap)
        record = cache.get(spec, config, cell)
        assert record is not None and record["telemetry"] == snap
        # The cache *key* is unaffected by telemetry presence.
        cache.put(spec, config, cell, {"x": 1}, 0.1)
        assert "telemetry" not in cache.get(spec, config, cell)

    def test_cells_keyed_by_plan_order(self):
        result = run_experiment(self.EXPERIMENT, quick=True, telemetry=True)
        spec = get_spec(self.EXPERIMENT)
        config = spec.make_config(quick=True)
        expected = ["/".join(key) for key in spec.plan(config)]
        assert list(result.data["telemetry"]["cells"]) == expected


class TestConfigCodecs:
    def test_key_dict_is_every_field_but_calibration(self):
        """Key completeness by construction: no field can be left out
        of the key, and the one that is — the calibration — moves the
        key through its own fingerprint."""
        for name, spec in sorted(all_specs().items()):
            for quick in (False, True):
                config = spec.make_config(quick=quick)
                fields = {f.name for f in dataclasses.fields(config)}
                assert set(config.to_key_dict()) == \
                    fields - {"calibration"}, (name, quick)
                if "calibration" not in fields:
                    continue
                cal = config.calibration
                nudged = dataclasses.replace(
                    config, calibration=dataclasses.replace(
                        cal, ssh=dataclasses.replace(
                            cal.ssh,
                            session_setup=cal.ssh.session_setup + 1.0)))
                cell = spec.plan(config)[0]
                assert nudged.to_key_dict() == config.to_key_dict()
                assert cache_key(spec, nudged, cell) != \
                    cache_key(spec, config, cell), (name, quick)

    def test_plan_covers_and_orders_cells(self):
        for name, spec in sorted(all_specs().items()):
            config = spec.make_config(quick=True)
            cells = spec.plan(config)
            assert cells, name
            assert len(set(cells)) == len(cells), name
            for cell in cells:
                assert isinstance(cell, tuple), name
                assert all(isinstance(part, str) for part in cell), name


class TestScenarioFacade:
    def test_campus_world_matches_legacy_builder(self):
        # The names the deleted campus shim produced, pinned literally:
        # seeds in tests/ and bench/ mean what they meant before.
        handle = Scenario(sites=1, scenario="campus", nodes_per_site=2,
                          seed=9, publish=False).build()
        assert list(handle.testbed.sites) == ["uab"]
        assert handle.target == "uab"
        assert handle.node().name == "wn0.uab"
        assert sorted(handle.network.hosts) == [
            "broker", "core", "gk.uab", "mds", "ui", "wn0.uab", "wn1.uab"]
        assert handle.testbed.index.site_count == 0  # publish=False
        wan = Scenario(sites=1, scenario="wan", nodes_per_site=2, seed=9,
                       publish=False).build()
        assert [n.name for n in wan.site().nodes] == ["wn0.ifca", "wn1.ifca"]

    def test_europe_world_has_no_default_target(self):
        handle = Scenario(sites=3, scenario="europe", seed=4).build()
        assert handle.target is None
        with pytest.raises(ValueError):
            handle.site()
        assert handle.site("site00") is not None

    def test_trace_flag_installs_tracer(self):
        handle = Scenario(sites=1, seed=2, trace=True).build()
        assert handle.tracer is not None

    def test_broker_is_lazy_and_single(self):
        handle = Scenario(sites=1, seed=3).build()
        assert handle._broker is None
        broker = handle.broker
        assert handle.broker is broker

    def test_configure_broker_conflicts_with_lazy_broker(self):
        from repro.core import BrokerConfig

        handle = Scenario(sites=1, seed=3).build()
        _ = handle.broker
        with pytest.raises(RuntimeError):
            handle.configure_broker(BrokerConfig())

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            Scenario(scenario="moon").build()
        with pytest.raises(ValueError):
            Scenario(sites=0).build()


class TestShardIndependence:
    def test_world_seed_depends_on_cell_not_shard(self):
        """Running a late cell first yields the same numbers as running
        it last: the world seed derives from the cell's canonical index."""
        spec = get_spec("fig6")
        config = spec.make_config(quick=True)
        config.sequences = 20
        cells = spec.plan(config)
        reversed_payloads = {key: spec.run_cell(config, key)
                             for key in reversed(cells)}
        forward_payloads = {key: spec.run_cell(config, key)
                            for key in cells}
        for key in cells:
            assert forward_payloads[key].values == \
                reversed_payloads[key].values, key
