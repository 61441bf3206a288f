"""``repro trace`` — a Table I cell under a tracer, broken down by phase.

Runs ``table1``'s own broker-method cell (same world, same seed, same
driver — the same simulation, event for event) with a
:class:`repro.obs.Tracer` installed on the environment, so every
middleware stage the broker traverses (matchmaking, GRAM submission,
glide-in bootstrap, agent dispatch, VM acquisition, streaming, output
retrieval) is attributed against sim-time — tracing observes, it does
not perturb.  Output is the per-phase breakdown table plus the event
tallies; ``--json``/``--csv`` dump the raw trace for notebooks and CI
artifacts, ``--chrome`` a Perfetto/Chrome ``trace_event`` file.

Usage::

    repro trace                      # all methods
    repro trace --method virtual-machine --jobs 10
    repro trace --scenario wan --json trace.json
    repro trace --telemetry --profile
    repro trace --method idle --telemetry --chrome out.json

Exit codes follow the ``repro lint`` contract: 0 — run clean; 1 — the
traced run recorded *fatal* signals (error-status spans, failed jobs, a
reliable sender giving up); 2 — usage error.  Non-fatal lifecycle noise
(resubmission timeouts, fast-mode drops, retries that eventually
succeeded) does not fail the command.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
from typing import Any, Callable, Dict, List, Optional

from ..metrics import (
    counters_table,
    job_breakdown_table,
    phase_breakdown_table,
    render_telemetry,
    write_trace_csv,
    write_trace_json,
)
from ..obs import Tracer, export_chrome_trace, profile_scope
from .table1 import METHODS, Table1Config, _measure_broker_method, _world

#: Broker-mediated Table I methods (glogin bypasses the broker entirely,
#: so there is nothing for the lifecycle tracer to attribute).
TRACE_METHODS = ("idle", "virtual-machine", "job+agent")


def run_traced_method(method: str, scenario: str = "campus", jobs: int = 5,
                      seed: int = 1, n_sites: int = 20,
                      telemetry: bool = False,
                      profile: bool = False) -> Tracer:
    """Run ``jobs`` submissions of one Table I method under a tracer.

    ``telemetry=True`` additionally installs a sim-time metrics registry
    (reachable afterwards as ``tracer.env.telemetry``); ``profile=True``
    attaches the kernel wall-clock profiler (``tracer.env.profiler``).
    The returned object stays a plain :class:`Tracer` either way.
    """
    if method not in TRACE_METHODS:
        raise ValueError(f"method must be one of {TRACE_METHODS}, "
                         f"got {method!r}")
    # The Table I cell itself, world seeded like it: one simulation.
    config = Table1Config(jobs_per_method=jobs, n_sites=n_sites, seed=seed)
    with profile_scope() if profile else contextlib.nullcontext():
        tb, target = _world(config, scenario, METHODS.index(method),
                            trace=True, telemetry=telemetry)
    _measure_broker_method(config, tb, target, method)
    return tb.env.tracer


def _tracer_fatal(tracer: Tracer) -> bool:
    """True when a traced run recorded genuinely fatal signals.

    Deliberately narrower than the phase table's ``errors`` column (which
    also counts expected lifecycle noise: ``queued-timeout``
    resubmissions, fast-mode ``dropped`` chunks, reliable ``retry``
    attempts).
    """
    tally = tracer.event_counts
    if tally.get("failed") or tally.get("sender_fatal"):
        return True
    return any(span.status == "error" for span in tracer.spans)


def _method_path(path: str, method: str) -> str:
    """``path`` with ``method`` inserted before the file name's extension
    (``runs.d/spans.csv`` -> ``runs.d/spans.idle.csv``)."""
    stem, ext = os.path.splitext(path)
    return f"{stem}.{method}{ext}"


def _at_least(low: int, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse ``type``: ``convert(text)``, refused below ``low`` (NaN
    too); argparse prefixes the message with the flag's name."""
    def parse(text: str) -> Any:
        value = convert(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value
    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


#: Sizes (``--jobs``, ``--sites``, ``--nodes``) are ints >= 1; a seed is
#: an int >= 0, and sim-second spans (``--gap``, ``--runtime``) floats >= 0.
positive_count = _at_least(1, int)
non_negative_int = _at_least(0, int)
non_negative_float = _at_least(0, float)


def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Traced Table I run: per-phase latency breakdown of "
                    "the job lifecycle (see repro.obs).")
    parser.add_argument("--method", choices=TRACE_METHODS + ("all",),
                        default="all", help="submission method to trace")
    parser.add_argument("--scenario", choices=("campus", "wan"),
                        default="campus")
    parser.add_argument("--jobs", type=positive_count, default=5,
                        help="submissions per method (default 5)")
    parser.add_argument("--sites", type=positive_count, default=20,
                        help="grid size (default 20, as in §6.1)")
    parser.add_argument("--seed", type=non_negative_int, default=1)
    parser.add_argument("--per-job", action="store_true",
                        help="also print the per-job phase totals")
    parser.add_argument("--telemetry", action="store_true",
                        help="install the sim-time metrics registry and "
                             "print its summary tables")
    parser.add_argument("--profile", action="store_true",
                        help="attach the kernel wall-clock profiler and "
                             "print its per-site attribution")
    parser.add_argument("--json", metavar="PATH",
                        help="dump the full trace(s) as JSON")
    parser.add_argument("--csv", metavar="PATH",
                        help="dump retained spans as CSV (one file per "
                             "method, method name inserted when tracing "
                             "several)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="export spans (+ telemetry counter tracks "
                             "with --telemetry) as Chrome trace_event JSON "
                             "for ui.perfetto.dev (one file per method, "
                             "like --csv)")
    args = parser.parse_args(argv)
    for flag in ("json", "csv", "chrome"):
        # Refused up front: the file is written only after the whole run.
        directory = os.path.dirname(getattr(args, flag) or "")
        if directory and not os.path.isdir(directory):
            parser.error(f"argument --{flag}: no directory {directory!r}")

    methods = list(TRACE_METHODS) if args.method == "all" else [args.method]
    several = len(methods) > 1
    run: Dict[str, Any] = {"scenario": args.scenario, "jobs": args.jobs,
                           "sites": args.sites, "seed": args.seed}
    traces: Dict[str, Any] = {}
    fatal = False
    for method in methods:
        tracer = run_traced_method(method, scenario=args.scenario,
                                   jobs=args.jobs, seed=args.seed,
                                   n_sites=args.sites,
                                   telemetry=args.telemetry,
                                   profile=args.profile)
        fatal = fatal or _tracer_fatal(tracer)
        title = (f"Per-phase latency breakdown — {method}, {args.scenario} "
                 f"({args.jobs} jobs)")
        print(phase_breakdown_table(tracer, title=title).render())
        print()
        print(counters_table(
            tracer, title=f"Event tallies — {method}").render())
        print()
        if args.per_job:
            print(job_breakdown_table(tracer).render())
            print()
        if args.telemetry and tracer.env.telemetry is not None:
            print(render_telemetry(tracer.env.telemetry.snapshot(), method))
            print()
        if args.profile and tracer.env.profiler is not None:
            prof = tracer.env.profiler
            print(f"Kernel wall-clock profile — {method} "
                  f"({prof.callbacks} callbacks, {prof.run_wall:.3f}s wall)")
            for stats in prof.rows()[:15]:
                print(f"  {stats.site:<40} n={stats.count:<8} "
                      f"total={stats.total:.4f}s mean={stats.mean:.2e}s")
            print()
        if args.json and several:
            traces[method] = tracer.to_dict()
        if args.csv:
            path = _method_path(args.csv, method) if several else args.csv
            n = write_trace_csv(tracer, path)
            print(f"wrote {n} spans to {path}")
        if args.chrome:
            path = _method_path(args.chrome, method) if several \
                else args.chrome
            n = export_chrome_trace(path, tracer=tracer,
                                    telemetry=tracer.env.telemetry)
            print(f"wrote {n} trace events to {path}")
    if args.json:
        if several:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump({**run, "methods": traces}, fh, indent=2,
                          default=str)
                fh.write("\n")
        else:
            # Single-method runs keep the flat tracer snapshot layout.
            write_trace_json(tracer, args.json,
                             extra={**run, "method": methods[0]})
        print(f"wrote {args.json}")
    return 1 if fatal else 0


__all__ = ["TRACE_METHODS", "run_traced_method", "trace_main"]
