#!/usr/bin/env python3
"""The repo's end-to-end, layer-attributed benchmark.

    python3 bench/run.py                      # all seven workloads, both passes
    python3 bench/run.py --workload grid_day --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --write-expected     # regenerate bench/expected.json

With ``--workload`` this process *is* the workload's fresh process: it
measures set-up, runs timed rounds (closed loop, one client) for about
``--seconds``, checks the outputs, and prints one JSON object as the last
line of stdout — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced rounds with ``--trace 1``.  Without ``--workload``
it runs every workload that way, one child process at a time, and writes
``bench/out/results.json``.  See bench/README.md for the method.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import layers  # noqa: E402  (bench/ is the script directory)
import workloads as wl  # noqa: E402

#: The seed expected.json was written for; any other seed skips the
#: digest and exact-count comparison (the inputs differ) and keeps the
#: checks the outputs make on themselves.
DEFAULT_SEED = 2006
IMPORT_SAMPLES = 5
MIN_ROUNDS = 2
#: Enough for a median; keeps the trace file of a 30 ms round small.
MAX_TRACED_ROUNDS = 30
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: Per-layer counts that must repeat bit-for-bit on the default seed.
EXACT = ("sim.events", "sim.callbacks", "sim.envs", "core.submits",
         "grid.cpu_consumed", "streaming.chunks_sent", "streaming.retries",
         "streaming.flushes", "multiprog.dispatches", "workloads.arrivals",
         "runner.cells", "runner.cache_hits")
#: Exact for a given process history, not from one round to the next: on
#: some seeds a world built later in a process schedules one event fewer
#: (table1_startup, seed 1: 593 096 events in the first traced round,
#: 593 095 in the second, every time, same render; rounds share the
#: process-wide job and message counters, cause not chased here).  Held to
#: expected.json from the first traced round, whose history is always one
#: untraced round.
HISTORY_DEPENDENT = ("sim.events", "sim.callbacks")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_DIR,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(seed: int, seconds: float) -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(), "commit": git_commit(),
            "seed": seed, "seconds": seconds, "claim": None}


def guard() -> None:
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: the program under test is missing: {exc}")
    if os.environ.get("REPRO_SIM_COMPILED"):
        sys.exit("bench: REPRO_SIM_COMPILED is set; the compiled lane is a "
                 "different program — unset it to run this benchmark")
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1) / 2:
        print(f"bench: warning: 1-min load average {load:.2f} exceeds "
              f"nproc/2; timings will be noisy", file=sys.stderr)


def time_child(code: str) -> float:
    """Seconds for a fresh interpreter to run ``code`` and exit.

    No ``timeout=``: with one, ``subprocess`` polls for the child's exit
    in sleeps of up to 50 ms, which quantises a 0.45 s measurement."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=REPO_DIR,
                   env=wl.child_env(), check=True)
    return perf_counter() - start


def summary(values: List[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


class Checks:
    """Checks attempted and failed over a whole run; ``expected`` is the
    bench/expected.json entry the run is held to, if it is comparable."""

    def __init__(self, expected: Optional[Dict[str, Any]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, description: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(description)

    def add_round(self, outcome: wl.Outcome) -> None:
        for description, passed in outcome.checks:
            self.add(description, passed)
        if self.expected is not None:
            self.add(f"digest matches bench/expected.json "
                     f"(got {outcome.digest[:12]})",
                     outcome.digest == self.expected["digest"])


def expected_for(workload: wl.Workload, args: argparse.Namespace
                 ) -> Optional[Dict[str, Any]]:
    """The expected.json entry to hold this run to, if it is comparable."""
    if args.smoke or args.write_expected:
        return None
    if workload.seeded and args.seed != DEFAULT_SEED:
        return None
    return load_expected()["workloads"][workload.name]


def timed_rounds(run_round: Any, seconds: float) -> List[wl.Round]:
    """Rounds back to back until another would overrun ``seconds``."""
    rounds: List[wl.Round] = []
    start = perf_counter()
    while True:
        # The previous round's world is cyclic garbage; collect it here so
        # the collector does not fire inside the next round's set-up.
        gc.collect()
        rounds.append(run_round())
        typical = statistics.median(r.setup_s + r.wall_s for r in rounds)
        if len(rounds) >= MIN_ROUNDS \
                and perf_counter() - start + typical > seconds:
            return rounds


# -- pass 1: end to end, tracing off ----------------------------------------

def run_end_to_end(workload: wl.Workload, args: argparse.Namespace
                   ) -> Dict[str, Any]:
    checks = Checks(expected_for(workload, args))

    imports = [time_child("import repro.experiments")
               for _ in range(IMPORT_SAMPLES)]
    start = perf_counter()
    workload.setup()
    setup_once = perf_counter() - start
    if not workload.cli:
        # Warm-up at smoke size: first-call costs (lazy imports, code
        # paths, allocator growth) without paying a full untimed round.
        warm = type(workload)(args.seed, smoke=True)
        warm.setup()
        warm.round()

    rounds = timed_rounds(workload.round, args.seconds)
    for r in rounds:
        checks.add_round(r.outcome)
    checks.add("every round produced the same output",
               len({r.outcome.digest for r in rounds}) == 1)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.cli
                               else resource.RUSAGE_SELF)
    walls = [r.wall_s for r in rounds]
    setup = {"import_s": summary(imports), "once_s": setup_once,
             "per_round_s": summary([r.setup_s for r in rounds])}
    # The best round, not the median: host noise on a shared box only
    # ever slows a round down, in bursts longer than a round, so the
    # fastest of n is the steadiest estimate of what the code costs (the
    # repo's own `repro bench` compares min for the same reason).
    # Median, max and n are kept beside it in the detail.
    metrics = {
        "wall_s": min(walls),
        "work_per_s": max(r.outcome.work / r.wall_s for r in rounds),
        "setup_s": (setup["import_s"]["median"] + setup_once
                    + setup["per_round_s"]["median"]),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "checks": checks,
            "detail": {"wall_s": summary(walls), "setup": setup,
                       "work": rounds[0].outcome.work,
                       "work_unit": workload.work_unit,
                       "digest": rounds[0].outcome.digest}}


# -- pass 2: traced rounds, per-layer numbers --------------------------------

def counter_sum(counters: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def layer_metrics(folded: Dict[str, Any], registries: List[Any],
                  r: wl.Round, parallel: int) -> Dict[str, float]:
    """Everything one traced round says about the layers."""
    from repro.obs import scope_snapshot

    out = layers.partition(folded)
    sites, resumes = folded["sites"], folded["resumes"]
    inclusive = folded["inclusive"]
    counters = scope_snapshot(registries)["counters"] if registries else {}
    profilers = [t.env.profiler for t in registries
                 if t.env.profiler is not None]

    def site_total(suffix: str) -> float:
        return sum(total for site, (_, total) in sites.items()
                   if site.endswith(suffix))

    timers = [(site, count, total) for site, (count, total) in sites.items()
              if site.startswith("timer:")]
    lrms = [row for row in timers if row[0] == "timer:lrms/*"]
    out.update({
        "sim.events": sum(t.env._eid for t in registries),
        "sim.callbacks": sum(p.callbacks for p in profilers),
        "sim.envs": len(registries),
        "sim.timer_shots": sum(count for _, count, _ in timers),
        "core.refresh_site_s": site_total("core/selection.py:refresh_site"),
        "core.submits": counters.get("broker.submits", 0.0),
        "net.rpc_serve_s": site_total("net/rpc.py:_serve"),
        "grid.mds_loop_s": sum(total for site, (_, total) in sites.items()
                               if "grid/mds.py:" in site),
        "grid.lrms_timer_s": sum(total for _, _, total in lrms),
        "grid.lrms_timer_shots": sum(count for _, count, _ in lrms),
        "grid.cpu_consumed": counter_sum(counters, "cpu.consumed."),
        "streaming.sender_run_s": site_total("streaming/sender.py:_run"),
        "streaming.chunks_sent": counter_sum(counters, "stream.chunks_sent."),
        "streaming.retries": counters.get("stream.retries.reliable", 0.0),
        "streaming.flushes": counter_sum(counters, "buffer.flushes."),
        "multiprog.dispatches": counters.get("vm.dispatches", 0.0),
        "workloads.generate_s": inclusive.get("workloads.generate", 0.0),
        "workloads.arrivals": r.outcome.extra.get("arrivals", 0),
        "scenario.build_s": inclusive.get("scenario.build", 0.0),
        "metrics.render_s": inclusive.get("metrics.render", 0.0),
        "experiments.paper_err_pct": r.outcome.extra.get("paper_err_pct", 0.0),
    })
    for layer in ("core", "net", "grid", "streaming"):
        out[f"{layer}.resumes"] = resumes.get(layer, 0)
    out["core.host_ms_per_submit"] = (
        1e3 * out["core.self_s"] / out["core.submits"]
        if out["core.submits"] else 0.0)

    stats = r.outcome.stats
    wall = sum(s.wall_seconds for s in stats)
    cell = sum(s.cell_seconds for s in stats)
    for span in ("plan", "cache_get", "cache_put", "run_cell", "merge"):
        out[f"runner.{span}_s"] = inclusive.get(f"runner.{span}", 0.0)
    out.update({
        # Wall beyond a perfect split of the cell seconds.  Cached cells
        # report the seconds they first took, so this only means
        # something for rounds that computed their cells.
        "runner.overhead_s": (0.0 if any(s.cells_cached for s in stats)
                              else wall - cell / parallel),
        "runner.cells": sum(s.cells_total for s in stats),
        "runner.cache_hits": sum(s.cells_cached for s in stats),
        "runner.cache_bytes": r.outcome.extra.get("cache_bytes", 0),
        "runner.parallel_efficiency": (
            cell / (parallel * wall) if parallel > 1 and wall else 0.0),
    })
    return out


def run_traced(workload: wl.Workload, args: argparse.Namespace
               ) -> Dict[str, Any]:
    checks = Checks(expected_for(workload, args))
    parallel = workload.parallel

    interp = statistics.median(time_child("pass") for _ in range(3))
    imported = statistics.median(
        time_child("import repro.experiments") for _ in range(3))
    workload.setup()
    start = perf_counter()
    base = workload.inprocess_round()  # hooks off: the overhead baseline
    checks.add_round(base.outcome)

    recorder = layers.Recorder()
    per_round: List[Dict[str, float]] = []
    walls: List[float] = []
    while True:
        recorder.round += 1
        first = len(recorder.spans)
        # Worker processes are not profiled: a parallel round keeps the
        # parent-side runner spans and RunStats only.
        with layers.patched(recorder, profile=parallel == 1) as registries:
            with recorder.span("round", "other"):
                r = workload.inprocess_round(recorder.span)
        checks.add_round(r.outcome)
        spans = recorder.spans[first:]
        found = layer_metrics(layers.fold(spans), registries, r, parallel)
        found["traced_round_s"] = spans[0]["end"] - spans[0]["start"]
        per_round.append(found)
        walls.append(r.wall_s)
        typical = statistics.median(
            m["traced_round_s"] for m in per_round)
        if recorder.round == MAX_TRACED_ROUNDS \
                or perf_counter() - start + typical > args.seconds:
            break

    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
    metrics["sim.ns_per_event"] = (
        1e9 * base.wall_s / metrics["sim.events"]
        if metrics["sim.events"] else 0.0)
    metrics["cli.interp_start_s"] = interp
    metrics["cli.import_s"] = imported - interp
    metrics["obs.trace_overhead_pct"] = \
        100.0 * (statistics.median(walls) / base.wall_s - 1.0)

    exact = {name: per_round[0][name] for name in EXACT
             if name not in workload.inexact}
    checks.add("exact counts repeat across traced rounds",
               all(m[name] == count for m in per_round
                   for name, count in exact.items()
                   if name not in HISTORY_DEPENDENT))
    if checks.expected is not None:
        for name, count in exact.items():
            checks.add(f"{name} matches bench/expected.json (got {count!r})",
                       count == checks.expected["exact"][name])

    os.makedirs(wl.OUT_DIR, exist_ok=True)
    with open(os.path.join(wl.OUT_DIR, f"trace-{workload.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "rounds": recorder.round,
                   "spans": recorder.spans}, fh)
    return {"metrics": metrics, "checks": checks,
            "detail": {"untraced_wall_s": base.wall_s,
                       "traced_wall_s": summary(walls),
                       "traced_rounds": recorder.round,
                       "digest": base.outcome.digest, "exact": exact}}


# -- one workload, this process ----------------------------------------------

def run_workload(args: argparse.Namespace) -> Tuple[Dict[str, Any], int]:
    """Run one workload's pass; returns (the result line, exit code)."""
    contract = load_contract()
    declared = contract["per_layer" if args.trace else "end_to_end"]
    workload = wl.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        found = (run_traced if args.trace else run_end_to_end)(workload, args)
    finally:
        workload.close()

    checks: Checks = found["checks"]
    missing = [m["name"] for m in declared if m["name"] not in found["metrics"]]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not "
                           f"measured: {missing}")
    line = {"correct": not checks.failures,
            "attempted": checks.attempted, "failed": len(checks.failures),
            "metrics": {m["name"]: {"value": found["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in declared}}
    record = dict(line, workload=args.workload, trace=args.trace,
                  smoke=args.smoke, stamp=stamp(args.seed, args.seconds),
                  failures=checks.failures, detail=found["detail"])
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    path = os.path.join(wl.OUT_DIR,
                        f"run-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{checks.attempted} checks, {len(checks.failures)} failed")
    for failure, times in Counter(checks.failures).items():
        print(f"  FAILED x{times}: {failure}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line))
    return record, 1 if checks.failures else 0


# -- every workload, one child process each ----------------------------------

def run_suite(args: argparse.Namespace) -> int:
    contract = load_contract()
    records: List[Dict[str, Any]] = []
    status = 0
    for workload in contract["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload["name"],
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            command += ["--smoke"] if args.smoke else []
            command += ["--write-expected"] if args.write_expected else []
            path = os.path.join(
                wl.OUT_DIR, f"run-{workload['name']}-trace{trace}.json")
            if os.path.exists(path):
                os.remove(path)  # a crashed child must not leave a stale one
            proc = subprocess.run(command, cwd=REPO_DIR, timeout=600)
            status = status or proc.returncode
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    records.append(json.load(fh))

    if args.write_expected:
        traced = {r["workload"]: r for r in records if r["trace"]}
        digests = {traced[name]["detail"]["digest"] for name in traced
                   if name.startswith("run_all_")}
        if status or len(digests) != 1:
            print("bench: not writing expected.json: a run failed or "
                  "serial, cached and parallel renders differ",
                  file=sys.stderr)
            return 1
        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "workloads": {
                name: {"digest": r["detail"]["digest"],
                       "exact": r["detail"]["exact"]}
                for name, r in traced.items()}}, fh, indent=1,
                sort_keys=True)
            fh.write("\n")
        print(f"wrote {EXPECTED_PATH}")
        return 0

    results = {"stamp": stamp(args.seed, args.seconds), "runs": records}
    with open(os.path.join(wl.OUT_DIR, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    names = [m["name"] for m in contract["end_to_end"]]
    print("\n" + f"{'workload':<24}" + "".join(f"{n:>14}" for n in names)
          + f"{'failed':>10}")
    for r in records:
        if not r["trace"]:
            print(f"{r['workload']:<24}" + "".join(
                f"{r['metrics'][n]['value']:>14.4g}" for n in names)
                + f"{r['failed']:>6}/{r['attempted']}")
    print(f"wrote {os.path.join(wl.OUT_DIR, 'results.json')}")
    return status


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, one child process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()["run_seconds"],
                        help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes (bench/test_bench.py)")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate bench/expected.json")
    args = parser.parse_args(argv)
    if args.smoke and args.write_expected:
        parser.error("--write-expected needs full-size rounds, not --smoke")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    guard()
    if args.workload is None:
        return run_suite(args)
    return run_workload(args)[1]


if __name__ == "__main__":
    sys.exit(main())
