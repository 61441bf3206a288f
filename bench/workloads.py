"""The seven benchmark workloads.

No workload is defined a second time here: the experiment workloads take
``get_spec(id).make_config()``, ``kernel_micro`` imports
``benchcmd.WORKLOADS``, the CLI workloads run ``repro run all`` (hence
``CANONICAL_ORDER``).  The only parameters this file owns are
``grid_day``'s (:data:`GRID_DAY`) and the reduced ``--smoke`` sizes.

Every workload does its own timing: ``round()`` returns the seconds of
its untimed prelude (world build, temp dirs), the seconds of the timed
region, and an :class:`Outcome` whose text is what gets digested.  The
program only ever receives generated configs and arrivals — the seed
stays on this side.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: grid_day: an 8-site europe testbed under ten simulated hours of mixed
#: load, drained the way examples/grid_day_in_the_life.py drains it.
#: Batch gap 70 s, not the issue's 60 s: at 60 s the offered batch load is
#: 30 concurrent jobs on 32 nodes and two seeds in ten fall off a
#: saturation cliff (2x the events), a 29 % spread across seeds; at 70 s
#: the grid is still loaded (queueing, 2-240 "no idle machine" refusals
#: per seed) and the event count spreads 3 %.
GRID_DAY = {
    "sites": 8, "nodes_per_site": 4,
    "horizon": 36000.0, "batch_interarrival": 70.0,
    "interactive_interarrival": 30.0, "shared_fraction": 0.6,
    "drain": 3 * 3600.0, "drain_step": 120.0,
}

Check = Tuple[str, bool]
SpanFactory = Callable[[str, str], Any]


def no_span(name: str, layer: str) -> Any:
    return nullcontext()


@dataclasses.dataclass
class Outcome:
    """What one round produced: the text to digest, the work it did in
    the workload's own unit, and the checks it ran on itself."""

    text: str
    work: float
    checks: List[Check]
    #: RunStats of every experiment the round ran (empty off the runner).
    stats: List[Any] = dataclasses.field(default_factory=list)
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class Round:
    setup_s: float
    wall_s: float
    outcome: Outcome


def child_env() -> Dict[str, str]:
    """The environment of every subprocess: the checkout's own ``src``
    first on the path, nothing else changed."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return env


def run_rendered(span: SpanFactory, calls: List[Tuple[str, Dict[str, Any]]]
                 ) -> Tuple[List[Any], str]:
    """``run_experiment`` each (id, kwargs) under a runner span; returns
    the results and their renders joined the way ``repro run`` prints
    them.  Rendering consumes each result inside the caller's timed
    region."""
    from repro.runner import run_experiment

    results = []
    for experiment_id, kwargs in calls:
        with span("runner.run_experiment", "runner"):
            results.append(run_experiment(experiment_id, **kwargs))
    return results, "".join(result.render() + "\n\n" for result in results)


class Workload:
    name = ""
    #: What ``work_per_s`` counts for this workload.
    work_unit = ""
    #: CLI workloads are child processes: peak RSS is read from
    #: RUSAGE_CHILDREN and the traced round is the in-process equivalent.
    cli = False
    #: False where the seed never reaches the program (``repro run`` has
    #: no seed flag), so the digest is comparable on every seed.
    seeded = True
    #: Exact counts (run.EXACT) this workload cannot promise.
    inexact: Tuple[str, ...] = ()
    #: Worker processes the runner fans cells out to.
    parallel = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Once per run, before any round; timed into ``setup_s``."""

    def round(self, span: SpanFactory = no_span) -> Round:
        raise NotImplementedError

    def inprocess_round(self, span: SpanFactory = no_span) -> Round:
        """The round the traced pass runs (CLI workloads override)."""
        return self.round(span)

    def close(self) -> None:
        """Remove whatever ``setup`` left on disk."""


# -- experiment workloads ---------------------------------------------------

class ExperimentWorkload(Workload):
    experiment_ids: Tuple[str, ...] = ()
    smoke_overrides: Dict[str, Any] = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        from repro.runner import get_spec

        overrides = self.smoke_overrides if smoke else {}
        self.configs = {
            eid: dataclasses.replace(get_spec(eid).make_config(),
                                     seed=seed, **overrides)
            for eid in self.experiment_ids}

    def work_done(self, results: List[Any]) -> float:
        raise NotImplementedError

    def extra(self, results: List[Any]) -> Dict[str, Any]:
        return {}

    def round(self, span: SpanFactory = no_span) -> Round:
        start = perf_counter()
        results, text = run_rendered(span, [
            (eid, {"config": config}) for eid, config in self.configs.items()])
        wall = perf_counter() - start
        # ShapeChecks are written for paper and --quick sizes ("~3 s at
        # 20 sites"); a --smoke round only exercises the plumbing.
        checks = [] if self.smoke else [
            (f"{result.experiment_id}: {check.description}", check.passed)
            for result in results for check in result.checks]
        return Round(0.0, wall, Outcome(
            text, self.work_done(results), checks,
            stats=[result.data["runner"] for result in results],
            extra=self.extra(results)))


class Table1Startup(ExperimentWorkload):
    name = "table1_startup"
    work_unit = "simulated jobs"
    experiment_ids = ("table1",)
    smoke_overrides = {"jobs_per_method": 4, "n_sites": 3}

    def work_done(self, results: List[Any]) -> float:
        measurements = results[0].data["measurements"]
        return float(sum(len(m.submission.values)
                         for by_method in measurements.values()
                         for m in by_method.values()))

    def extra(self, results: List[Any]) -> Dict[str, Any]:
        from repro.experiments.table1 import PAPER

        measurements = results[0].data["measurements"]
        errors = [abs(measurements[scenario][method].submission.mean - paper)
                  / paper
                  for method, by_scenario in PAPER.items()
                  for scenario, paper in by_scenario.items()
                  if paper is not None and scenario in measurements]
        return {"paper_err_pct": 100.0 * sum(errors) / len(errors)}


class Fig67Streaming(ExperimentWorkload):
    name = "fig67_streaming"
    work_unit = "streamed sequences"
    experiment_ids = ("fig6", "fig7")
    smoke_overrides = {"sequences": 20}

    def work_done(self, results: List[Any]) -> float:
        return float(sum(
            config.sequences * result.data["runner"].cells_total
            for config, result in zip(self.configs.values(), results)))


# -- grid_day ---------------------------------------------------------------

class GridDay(Workload):
    name = "grid_day"
    work_unit = "simulated jobs"

    def round(self, span: SpanFactory = no_span) -> Round:
        from repro import Scenario
        from repro.jdl import JobCategory
        from repro.sim import RandomStreams
        from repro.workloads import (MixConfig, cpu_bound_app, generate_mix,
                                     immediate_output_app, replay)

        p = GRID_DAY
        start = perf_counter()
        handle = Scenario(sites=p["sites"], scenario="europe",
                          nodes_per_site=p["nodes_per_site"],
                          seed=self.seed).build()
        mix = MixConfig(
            horizon=1800.0 if self.smoke else p["horizon"],
            batch_interarrival=p["batch_interarrival"],
            interactive_interarrival=p["interactive_interarrival"],
            shared_fraction=p["shared_fraction"])
        with span("workloads.generate", "workloads"):
            arrivals = generate_mix(RandomStreams(self.seed), mix)
        env, broker = handle.testbed.env, handle.broker

        def behavior_for(arrival: Any, rank: int) -> Any:
            if arrival.job.category is JobCategory.BATCH:
                return cpu_bound_app(arrival.runtime)
            return immediate_output_app(run_for=arrival.runtime)

        built = perf_counter()
        submitted, feeder = replay(env, broker, arrivals, behavior_for)
        env.run(until=feeder)
        deadline = env.now + p["drain"]
        while env.now < deadline and any(
                not s.finished.triggered and s.report.error is None
                and not s.report.rejected for s in submitted):
            env.run(until=env.now + p["drain_step"])
        wall = perf_counter() - built

        ok = sum(1 for s in submitted if s.report.success)
        rejected = sum(1 for s in submitted if s.report.rejected)
        errors = sum(1 for s in submitted if s.report.error is not None)
        terminal = sum(1 for s in submitted
                       if s.finished.triggered or s.report.rejected
                       or s.report.error is not None)
        paths = Counter(s.report.path.value for s in submitted
                        if s.report.path)
        tally = {"jobs": len(submitted), "ok": ok, "rejected": rejected,
                 "errors": errors, "paths": dict(sorted(paths.items())),
                 "final_now": repr(env.now)}
        # Refusals under load ("no idle machine") are the modelled
        # system's answer, part of the tally — not benchmark failures.
        checks = [("grid_day: every arrival was submitted",
                   len(submitted) == len(arrivals)),
                  ("grid_day: jobs completed", ok > 0),
                  ("grid_day: no job both ok and refused",
                   ok + rejected + errors <= len(submitted))]
        return Round(built - start, wall, Outcome(
            json.dumps(tally, sort_keys=True), float(terminal), checks,
            extra={"arrivals": len(arrivals)}))


# -- kernel_micro -----------------------------------------------------------

class KernelMicro(Workload):
    name = "kernel_micro"
    work_unit = "kernel events"
    seeded = False  # the six kernel workloads draw no random numbers

    def setup(self) -> None:
        """One counting pass: the event ids each workload consumes (the
        round's work, and its digest)."""
        from repro.experiments.benchcmd import WORKLOADS
        from repro.obs import telemetry_scope

        self.events: Dict[str, int] = {}
        for name, fn in WORKLOADS.items():
            with telemetry_scope(series=False) as registries:
                fn()
            self.events[name] = sum(t.env._eid for t in registries)

    def round(self, span: SpanFactory = no_span) -> Round:
        from repro.experiments.benchcmd import WORKLOADS

        start = perf_counter()
        for fn in WORKLOADS.values():
            fn()
        wall = perf_counter() - start
        checks = [("kernel_micro: every workload scheduled events",
                   all(n > 0 for n in self.events.values()))]
        return Round(0.0, wall, Outcome(
            json.dumps(self.events, sort_keys=True),
            float(sum(self.events.values())), checks))


# -- repro run all, through the CLI -----------------------------------------

_STATS_LINE = re.compile(
    r"^(\S+): (\d+) cells \((\d+) computed, (\d+) cached\)", re.MULTILINE)


class RunAllCli(Workload):
    cli = True
    seeded = False
    work_unit = "experiment cells"
    #: "cold": fresh cache dir per round; "warm": one populated in setup;
    #: None: ``--no-cache``.
    cache: Optional[str] = None
    # selection-scaling and fairshare-saturation consume a different number
    # of event ids each time they run in one process (17699, 17500, 17712
    # at --quick) while rendering the same bytes, so the in-process
    # equivalent of ``run all`` cannot hold these two counts exactly.
    inexact = ("sim.events", "sim.callbacks")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.warm_dir: Optional[str] = None

    def _tmp_cache(self) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"cache-{self.name}-", dir=OUT_DIR)

    def _cli(self, cache_dir: Optional[str]) -> Tuple[float, Outcome]:
        command = [sys.executable, "-m", "repro", "run", "all",
                   "--no-progress"]
        if self.smoke:
            command.append("--quick")
        command += (["--cache-dir", cache_dir] if cache_dir
                    else ["--no-cache"])
        if self.parallel > 1:
            command += ["--parallel", str(self.parallel)]
        # No timeout=: it would make subprocess poll for the exit in
        # sleeps of up to 50 ms, a tenth of a warm round.
        start = perf_counter()
        proc = subprocess.run(command, cwd=REPO_DIR, env=child_env(),
                              capture_output=True, text=True)
        wall = perf_counter() - start
        rows = _STATS_LINE.findall(proc.stderr)
        cells = sum(int(row[1]) for row in rows)
        computed = sum(int(row[2]) for row in rows)
        cached = sum(int(row[3]) for row in rows)
        return wall, Outcome(proc.stdout, float(cells),
                             self._checks(proc.returncode, len(rows),
                                          computed, cached))

    def _checks(self, returncode: int, experiments: int, computed: int,
                cached: int) -> List[Check]:
        from repro.experiments.cli import CANONICAL_ORDER

        checks = [(f"{self.name}: exit code 0", returncode == 0),
                  (f"{self.name}: all experiments reported",
                   experiments == len(CANONICAL_ORDER))]
        if self.cache == "warm":
            checks.append((f"{self.name}: (0 computed", computed == 0
                           and cached > 0))
        else:
            checks.append((f"{self.name}: nothing served from a cache",
                           cached == 0 and computed > 0))
        return checks

    def setup(self) -> None:
        if self.cache == "warm":
            self.warm_dir = self._tmp_cache()
            _, outcome = self._cli(self.warm_dir)
            if not outcome.checks[0][1]:
                raise RuntimeError("cache populate run failed")

    def close(self) -> None:
        if self.warm_dir is not None:
            shutil.rmtree(self.warm_dir, ignore_errors=True)
            self.warm_dir = None

    def round(self, span: SpanFactory = no_span) -> Round:
        start = perf_counter()
        cold_dir = self._tmp_cache() if self.cache == "cold" else None
        prelude = perf_counter() - start
        try:
            wall, outcome = self._cli(cold_dir or self.warm_dir)
        finally:
            if cold_dir is not None:
                shutil.rmtree(cold_dir, ignore_errors=True)
        return Round(prelude, wall, outcome)

    def inprocess_round(self, span: SpanFactory = no_span) -> Round:
        """What the CLI does after argument parsing, in this process:
        ``run_experiment`` over CANONICAL_ORDER with the same cache and
        parallel settings, each result rendered."""
        from repro.experiments.cli import CANONICAL_ORDER
        from repro.runner import ResultCache

        start = perf_counter()
        cold_dir = self._tmp_cache() if self.cache == "cold" else None
        cache_dir = cold_dir or self.warm_dir
        prelude = perf_counter() - start
        try:
            start = perf_counter()
            results, text = run_rendered(span, [
                (name, {"quick": self.smoke, "parallel": self.parallel,
                        "cache": cache_dir}) for name in CANONICAL_ORDER])
            wall = perf_counter() - start
            cache_bytes = sum(row["bytes"] for row in
                              ResultCache(cache_dir).summary()) \
                if cache_dir else 0
        finally:
            if cold_dir is not None:
                shutil.rmtree(cold_dir, ignore_errors=True)
        stats = [result.data["runner"] for result in results]
        checks = self._checks(
            0 if all(result.passed for result in results) else 1,
            len(results), sum(s.cells_computed for s in stats),
            sum(s.cells_cached for s in stats))
        return Round(prelude, wall, Outcome(
            text, float(sum(s.cells_total for s in stats)), checks,
            stats=stats, extra={"cache_bytes": cache_bytes}))


class RunAllCold(RunAllCli):
    name = "run_all_cold_cli"
    cache = "cold"


class RunAllWarm(RunAllCli):
    name = "run_all_warm_cli"
    cache = "warm"


class RunAllParallel2(RunAllCli):
    name = "run_all_parallel2_cli"
    parallel = 2


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (
        Table1Startup, Fig67Streaming, GridDay, KernelMicro,
        RunAllCold, RunAllWarm, RunAllParallel2)}
