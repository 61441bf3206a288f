"""The sharded experiment executor: one worker pool per run.

Execution model (:func:`run_experiments`):

1. ``spec.plan(config)`` yields each experiment's ordered cell list;
2. cells present in the :class:`~repro.runner.cache.ResultCache` are
   loaded (0 simulation);
3. missing cells are executed — in process, one experiment after the
   other, or with ``parallel > 1`` those of *every* requested experiment
   through ONE ``ProcessPoolExecutor``, plain FIFO in request-then-plan
   order, each completion routed to its experiment as it arrives;
   ``parallel=0`` (auto) is a pool of :func:`default_parallelism`, so
   one CPU runs in process;
4. payloads are merged **in plan order**, never completion order, so a
   parallel run is bit-identical to a serial run of the same config.

When the simulator loads: never at import.  This module, the cache and
the experiment declarations are all a fully cached run touches; the
first cell that has to be *executed* imports the simulator from inside
its ``run_cell`` (its ``elapsed`` includes that one-off import), and a
pool imports it — and ``concurrent.futures`` — once in the parent just
before it forks, so workers share it.

The engine reports a :class:`RunStats` in
``result.data["runner"]`` (wall-clock, cached/computed split, serial-
equivalent cell seconds, speedup) — deliberately *outside* the rendered
tables/notes so that timing noise can never break output determinism.
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from .cache import ResultCache
from .spec import CellKey, get_spec

Progress = Callable[[str], None]

#: cgroup v2 CPU bandwidth limit: ``"<quota> <period>"`` or ``"max ..."``.
CPU_MAX = "/sys/fs/cgroup/cpu.max"


@dataclass(frozen=True)
class CellOutcome:
    """How one cell was satisfied."""

    key: CellKey
    elapsed: float
    cached: bool


@dataclass
class RunStats:
    """Aggregate execution statistics for one experiment run."""

    experiment_id: str
    #: Size of the pool that computed any of its cells, else 1.
    parallel: int = 1
    wall_seconds: float = 0.0
    cells: List[CellOutcome] = field(default_factory=list)

    @property
    def cells_total(self) -> int:
        return len(self.cells)

    @property
    def cells_cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def cells_computed(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def cell_seconds(self) -> float:
        """Serial-equivalent simulation time: the sum every cell *took*
        (cached cells contribute the time recorded when first computed)."""
        return sum(c.elapsed for c in self.cells)

    @property
    def speedup(self) -> float:
        """Serial-equivalent seconds / wall seconds (>1 = time saved by
        sharding and/or cache hits)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.cell_seconds / self.wall_seconds

    def describe(self) -> str:
        return (f"{self.experiment_id}: {self.cells_total} cells "
                f"({self.cells_computed} computed, {self.cells_cached} "
                f"cached) in {self.wall_seconds:.2f}s wall; "
                f"serial-equivalent {self.cell_seconds:.2f}s; "
                f"speedup {self.speedup:.2f}x "
                f"(parallel={self.parallel})")


def _execute_cell(experiment_id: str, config: Any, key: CellKey,
                  telemetry: bool = False,
                  chaos: Optional[Dict[str, Any]] = None) -> Any:
    """Worker-side entry point (module-level: picklable by name).

    With ``telemetry=True`` the cell runs under a
    :func:`repro.obs.telemetry_scope`, so every environment the cell
    builds gets a metrics registry; the merged snapshot (a plain JSON-
    ready dict — picklable across the process pool) is returned as the
    4th element and ``None`` otherwise.  Recording is observation-only,
    so the payload is byte-identical either way.

    ``chaos`` (a :class:`repro.obs.ChaosSchedule` ``to_dict``) wraps the
    cell in a :func:`repro.obs.control_scope`, replaying the schedule's
    steering verbs at their sim-times in every environment the cell
    builds.  Chaos perturbs results by design, so the engine never
    caches chaos-run payloads (see :func:`run_experiment`).

    The cyclic garbage collector is paused for the extent of the cell
    (:class:`repro.sim.collector_paused`).
    """
    spec = get_spec(experiment_id)
    t0 = time.perf_counter()
    # After t0: the first cell a process computes still carries the
    # one-off simulator import in its `elapsed`.
    from ..sim import collector_paused

    def _run() -> Any:
        if chaos is not None:
            from ..obs import ChaosSchedule, control_scope

            with control_scope(schedule=ChaosSchedule.from_dict(chaos)):
                return spec.run_cell(config, key)
        return spec.run_cell(config, key)

    # The cell is the collection epoch: its world is born and dies in
    # here, so it is still young when the pause ends and one pass frees
    # it — a pause per run() alone would promote the live world first.
    with collector_paused():
        if telemetry:
            from ..obs import scope_snapshot, telemetry_scope

            with telemetry_scope() as registries:
                payload = _run()
            snapshot = scope_snapshot(registries)
        else:
            payload = _run()
            snapshot = None
    return key, payload, time.perf_counter() - t0, snapshot


def default_parallelism() -> int:
    """Worker count for ``--parallel 0`` (auto): the CPUs this process
    may run on — under an affinity pin fewer than exist, and under a
    cgroup v2 CPU quota (``docker --cpus``) no more than the quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        with open(CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()[:2]
        if quota != "max":
            cpus = min(cpus, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError):
        pass  # no cgroup v2 quota to honour
    return max(1, cpus)


def _ignore_sigint() -> None:
    """Pool worker initializer: Ctrl-C reaches the whole process group,
    and only the parent answers it (it shuts the pool down).  A worker
    forks with SIGINT blocked, so one sent meanwhile is dropped here."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


class _Run:
    """One experiment of a run: plan and cache look-ups on construction,
    :meth:`complete` per missing cell, then the plan-order :meth:`merge`."""

    def __init__(self, experiment_id: str, config: Any, *, quick: bool,
                 cache: Optional[ResultCache],
                 say: Progress, telemetry: bool) -> None:
        self.spec = spec = get_spec(experiment_id)
        if config is None:
            config = spec.make_config(quick=quick)
        self.config, self.cache = config, cache
        self.say, self.telemetry = say, telemetry
        self.cells = list(spec.plan(config))
        self.stats = RunStats(experiment_id=experiment_id)
        self.payloads: Dict[CellKey, Any] = {}
        self.snapshots: Dict[CellKey, Any] = {}
        self.missing: List[CellKey] = []
        for key in self.cells:
            record = (cache.get(spec, config, key) if cache is not None
                      else None)
            if record is not None and (not telemetry
                                       or "telemetry" in record):
                self.payloads[key] = record["payload"]
                if telemetry:
                    self.snapshots[key] = record["telemetry"]
                self.stats.cells.append(CellOutcome(
                    key, record.get("elapsed", 0.0), cached=True))
                say(f"[{experiment_id}] {'/'.join(key)}: cached (first "
                    f"computed in {record.get('elapsed', 0.0):.2f}s)")
            else:
                # A hit without a stored telemetry snapshot is treated as
                # a miss when telemetry is requested: re-simulating is the
                # only way to observe the cell (payloads stay identical).
                self.missing.append(key)

    def complete(self, key: CellKey, payload: Any, elapsed: float,
                 snapshot: Any) -> None:
        self.payloads[key] = payload
        if self.telemetry:
            self.snapshots[key] = snapshot
        self.stats.cells.append(CellOutcome(key, elapsed, cached=False))
        if self.cache is not None:
            self.cache.put(self.spec, self.config, key, payload, elapsed,
                           telemetry=snapshot)
        self.say(f"[{self.stats.experiment_id}] {'/'.join(key)}: computed "
                 f"in {elapsed:.2f}s ({len(self.payloads)}/{len(self.cells)})")

    def merge(self) -> Any:
        cells, snapshots = self.cells, self.snapshots
        ordered = {key: self.payloads[key] for key in cells}  # plan order
        position = {key: i for i, key in enumerate(cells)}
        self.stats.cells.sort(key=lambda c: position[c.key])
        result = self.spec.merge(self.config, ordered)
        result.data["runner"] = self.stats
        if self.telemetry:
            from ..obs import merge_snapshots

            # Plan order, never completion order: the merged snapshot of a
            # parallel run is identical to the serial (and cache-hit) one.
            result.data["telemetry"] = {
                "cells": {"/".join(key): snapshots[key] for key in cells},
                "merged": merge_snapshots([snapshots[key] for key in cells]),
            }
        return result


def run_experiments(requests: Iterable[Union[str, Tuple[str, Any]]], *,
                    quick: bool = False,
                    parallel: int = 1,
                    cache: Union[ResultCache, str, None] = None,
                    progress: Optional[Progress] = None,
                    telemetry: bool = False,
                    chaos: Optional[Dict[str, Any]] = None) -> Iterator[Any]:
    """Run the requested experiments through the sharded engine, yielding
    each result in request order as soon as its last cell is in.

    Parameters
    ----------
    requests:
        Experiment ids, or ``(id, config)`` pairs; a missing/None config
        is the spec's paper-scale (or ``quick``) factory.
    parallel:
        Worker processes.  ``<= 1`` runs each experiment start to finish
        in turn, in-process (no executor, no pickling, nothing planned
        ahead); ``N > 1`` sends every missing cell to one pool of up to
        N; ``0`` auto-sizes to the machine (:func:`default_parallelism`).
        A run with nothing to compute never loads ``concurrent.futures``.
    cache:
        A :class:`ResultCache`, a directory path, or None to disable.
    progress:
        Per-cell progress callback (e.g. ``print``).
    telemetry:
        Collect a sim-time telemetry snapshot per cell (see
        :mod:`repro.obs.telemetry`).  Snapshots travel through the cell
        cache; a cached cell without a stored snapshot is treated as a
        miss so telemetry-on runs always yield complete metrics.  The
        merged snapshot lands in ``result.data["telemetry"]`` — outside
        the rendered output, which stays byte-identical.
    chaos:
        A chaos schedule as a plain dict (``ChaosSchedule.to_dict``) to
        replay inside every cell.  A non-empty schedule steers the
        simulation, so the cell cache is bypassed entirely — chaos
        payloads must never be stored under (or served from) the
        unperturbed cache key.  An *empty* schedule still binds a steering
        adapter to every world a cell builds through ``Scenario`` but
        queues nothing, so it changes nothing — which is exactly what the
        CI empty-schedule gate proves by diffing the golden — and keeps
        the cache usable.

    ``RunStats.wall_seconds`` is the wall time an experiment *added* to
    the run (previous yield to its own), so the per-experiment walls sum
    to the run's however the cells interleaved.
    """
    if chaos is not None and chaos.get("actions"):
        cache = None
    if isinstance(cache, str):
        cache = ResultCache(cache)
    if parallel == 0:
        parallel = default_parallelism()
    say = progress or (lambda line: None)
    t_prev = time.perf_counter()
    runs: Iterable[_Run] = (
        _Run(*((request, None) if isinstance(request, str) else request),
             quick=quick, cache=cache, say=say, telemetry=telemetry)
        for request in requests)
    executor, futures, done = None, {}, None
    try:
        if parallel > 1:
            runs = list(runs)
            jobs = [(run, key) for run in runs for key in run.missing]
            if jobs:
                try:
                    executor, futures, done = _start_pool(
                        jobs, parallel, telemetry, chaos)
                except OSError as exc:
                    # Environments without working process pools
                    # (restricted sandboxes) fall back to in-process
                    # execution.
                    say(f"process pool unavailable ({exc}); "
                        f"falling back to serial execution")
        for run in runs:
            if executor is None:
                for key in run.missing:
                    run.complete(*_execute_cell(
                        run.stats.experiment_id, run.config, key,
                        telemetry, chaos))
            while len(run.stats.cells) < len(run.cells):
                future = done.get()
                futures[future].complete(*future.result())
            result = run.merge()
            now = time.perf_counter()
            run.stats.wall_seconds, t_prev = now - t_prev, now
            yield result
    finally:
        if executor is not None:
            # A failing cell, an abandoned iterator or Ctrl-C drops the
            # queued cells.
            executor.shutdown(wait=True, cancel_futures=True)


def _start_pool(jobs: List[Tuple[_Run, CellKey]], workers: int,
                telemetry: bool, chaos: Optional[Dict[str, Any]]
                ) -> Tuple[Any, Dict[Any, _Run], Any]:
    """The run's one pool, of up to ``workers``, fed every job in order:
    ``(executor, {future: its run}, done)``, where each future is put on
    the ``done`` queue as it completes.  Whatever stops it half-built —
    an ``OSError`` or Ctrl-C — shuts it down before propagating."""
    # Loaded only here: a run the cache serves, or a serial one, never
    # pays for multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    from queue import SimpleQueue

    # The simulator loads once here, before the pool forks, not once
    # per worker.
    import repro.scenario  # noqa: F401

    size = min(workers, len(jobs))
    # Ctrl-C is held while the workers fork (they inherit the mask and
    # drop it in _ignore_sigint), then answered by the parent alone.
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        executor = ProcessPoolExecutor(max_workers=size,
                                       initializer=_ignore_sigint)
        try:
            futures = {executor.submit(_execute_cell,
                                       run.stats.experiment_id, run.config,
                                       key, telemetry, chaos): run
                       for run, key in jobs}
            # The parent then waits on this queue alone.  A Ctrl-C
            # landing inside concurrent.futures.wait(), which locks every
            # pending future in turn, could leave one locked, and
            # shutdown() would hang cancelling it; registering takes
            # each lock once, here, with Ctrl-C held.
            done = SimpleQueue()
            for future in futures:
                future.add_done_callback(done.put)
            # A Ctrl-C held until now raises here, and the pool is shut
            # down on its way out.
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        except BaseException:
            executor.shutdown(wait=True, cancel_futures=True)
            raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
    for run, _ in jobs:
        run.stats.parallel = size
    return executor, futures, done


def run_experiment(experiment_id: str, config: Any = None,
                   **options: Any) -> Any:
    """Run one experiment: :func:`run_experiments` with one request."""
    [result] = run_experiments([(experiment_id, config)], **options)
    return result


__all__ = ["CellOutcome", "RunStats", "default_parallelism",
           "run_experiment", "run_experiments"]
