"""The sharded experiment executor.

Execution model:

1. ``spec.plan(config)`` yields the canonical ordered cell list;
2. cells present in the :class:`~repro.runner.cache.ResultCache` are
   loaded (0 simulation);
3. missing cells are executed — serially, or fanned out across a
   ``ProcessPoolExecutor`` when ``parallel > 1``;
4. payloads are merged **in plan order**, never completion order, so a
   parallel run is bit-identical to a serial run of the same config.

The engine reports a :class:`RunStats` in
``result.data["runner"]`` (wall-clock, cached/computed split, serial-
equivalent cell seconds, speedup) — deliberately *outside* the rendered
tables/notes so that timing noise can never break output determinism.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from .cache import ResultCache
from .spec import CellKey, get_spec

Progress = Callable[[str], None]


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
    parallel: int
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
    """
    spec = get_spec(experiment_id)
    t0 = time.perf_counter()

    def _run() -> Any:
        if chaos is not None:
            from ..obs import ChaosSchedule, control_scope

            with control_scope(schedule=ChaosSchedule.from_dict(chaos)):
                return spec.run_cell(config, key)
        return spec.run_cell(config, key)

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
    """A conservative default worker count for ``--parallel 0`` (auto)."""
    return max(1, (os.cpu_count() or 1))


def run_experiment(experiment_id: str,
                   config: Any = None,
                   *,
                   quick: bool = False,
                   parallel: int = 1,
                   cache: Union[ResultCache, str, None] = None,
                   progress: Optional[Progress] = None,
                   telemetry: bool = False,
                   chaos: Optional[Dict[str, Any]] = None) -> Any:
    """Run one experiment through the sharded engine.

    Parameters
    ----------
    config:
        Experiment config; defaults to the spec's paper-scale (or
        ``quick``) factory.
    parallel:
        Worker processes.  ``<= 1`` runs in-process (no executor, no
        pickling); ``0`` auto-sizes to the machine.
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
        unperturbed cache key.  An *empty* schedule still attaches an
        (idle) controller to every environment — by the kernel contract
        that changes nothing, which is exactly what the CI idle-server
        gate proves by diffing the golden — and keeps the cache usable.
    """
    spec = get_spec(experiment_id)
    if config is None:
        config = spec.make_config(quick=quick)
    if chaos is not None and chaos.get("actions"):
        cache = None
    if isinstance(cache, str):
        cache = ResultCache(cache)
    if parallel == 0:
        parallel = default_parallelism()

    say = progress or (lambda line: None)
    cells = list(spec.plan(config))
    stats = RunStats(experiment_id=experiment_id, parallel=max(1, parallel))
    payloads: Dict[CellKey, Any] = {}
    t_wall = time.perf_counter()

    # -- phase 1: cache lookups -----------------------------------------
    snapshots: Dict[CellKey, Any] = {}
    missing: List[CellKey] = []
    for key in cells:
        record = cache.get(spec, config, key) if cache is not None else None
        if record is not None and (not telemetry or "telemetry" in record):
            payloads[key] = record["payload"]
            if telemetry:
                snapshots[key] = record["telemetry"]
            stats.cells.append(CellOutcome(key, record.get("elapsed", 0.0),
                                           cached=True))
            say(f"[{experiment_id}] {'/'.join(key)}: cached "
                f"(first computed in {record.get('elapsed', 0.0):.2f}s)")
        else:
            # A hit without a stored telemetry snapshot is treated as a
            # miss when telemetry is requested: re-simulating is the only
            # way to observe the cell (payloads stay identical).
            missing.append(key)

    # -- phase 2: simulate missing cells --------------------------------
    def _complete(key: CellKey, payload: Any, elapsed: float,
                  snapshot: Any) -> None:
        payloads[key] = payload
        if telemetry:
            snapshots[key] = snapshot
        stats.cells.append(CellOutcome(key, elapsed, cached=False))
        if cache is not None:
            cache.put(spec, config, key, payload, elapsed,
                      telemetry=snapshot)
        say(f"[{experiment_id}] {'/'.join(key)}: computed in "
            f"{elapsed:.2f}s ({len(payloads)}/{len(cells)})")

    if missing and parallel > 1:
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(parallel, len(missing)))
            futures = {executor.submit(_execute_cell, experiment_id,
                                       config, key, telemetry, chaos): key
                       for key in missing}
            pending = set(futures)
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    key, payload, elapsed, snapshot = future.result()
                    _complete(key, payload, elapsed, snapshot)
        except (OSError, PermissionError) as exc:
            # Environments without working process pools (restricted
            # sandboxes) fall back to in-process execution.
            say(f"[{experiment_id}] process pool unavailable "
                f"({exc}); falling back to serial execution")
            for key in [k for k in missing if k not in payloads]:
                _, payload, elapsed, snapshot = _execute_cell(
                    experiment_id, config, key, telemetry, chaos)
                _complete(key, payload, elapsed, snapshot)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
    else:
        for key in missing:
            _, payload, elapsed, snapshot = _execute_cell(
                experiment_id, config, key, telemetry, chaos)
            _complete(key, payload, elapsed, snapshot)

    # -- phase 3: deterministic merge -----------------------------------
    ordered = {key: payloads[key] for key in cells}  # plan order, always
    stats.cells.sort(key=lambda c: cells.index(c.key))
    result = spec.merge(config, ordered)
    stats.wall_seconds = time.perf_counter() - t_wall
    result.data["runner"] = stats
    if telemetry:
        from ..obs import merge_snapshots

        # Plan order, never completion order: the merged snapshot of a
        # parallel run is identical to the serial (and cache-hit) one.
        cell_snaps = {"/".join(key): snapshots[key] for key in cells}
        result.data["telemetry"] = {
            "cells": cell_snaps,
            "merged": merge_snapshots([snapshots[key] for key in cells]),
        }
    return result


__all__ = ["CellOutcome", "RunStats", "default_parallelism",
           "run_experiment"]
