"""``repro serve`` — replay a chaos schedule against a scripted workload.

Builds a Scenario world inside a :func:`repro.obs.control.control_scope`
(so the ``--chaos`` schedule's verbs are queued as kernel events at
their sim-times), drives a stream of interactive jobs through the
broker, and prints a deterministic summary read off the world adapter
the scope yields — sites, jobs, and every verb fired::

    repro serve campus --sites 8 --jobs 30
    repro serve europe --chaos chaos.json

Same schedule + same seed produce byte-identical output
(``tests/golden/serve_*.out`` hold two of them).  A bad schedule file,
or a verb that cannot apply to the world (an unknown site), is a
one-line usage error (exit 2).
"""

from __future__ import annotations

import argparse
from typing import List, Optional


def _driver(handle, world, jobs: int, gap: float, runtime: float):
    """The served workload: paced submissions, then wait for everything."""
    from ..workloads import synthetic_job
    from .common import drive_paced_jobs

    yield from drive_paced_jobs(
        handle,
        (synthetic_job(f"srv-{i:03d}", f"user{i % 3}", runtime, "served-app")
         for i in range(jobs)),
        gap, runtime, "serve/pace", on_submit=world.track)
    yield from handle.broker.drain()


def _summary(world, handle) -> List[str]:
    """Deterministic end-of-run report (byte-identical across replays)."""
    lines = [f"serve summary @ t={handle.env.now:.3f}"]
    for row in world.site_rows():
        flags = "".join(
            [" drained" if row["drained"] else "",
             "" if row["up"] else " down"])
        lines.append(
            f"  site {row['site']}: {row['running']} running, "
            f"{row['queued']} queued, {row['free']}/{row['total']} "
            f"free{flags}")
    for row in world.job_rows():
        site = row["site"] or "-"
        lines.append(
            f"  job {row['job']} [{row['owner']}] {row['stage']} "
            f"at {site} ({row['resubmissions']} resubmissions)")
    fired = world.fired
    lines.append(f"  verbs fired: {len(fired)}")
    for record in fired:
        lines.append(f"    t={record['at']:.3f} {record['verb']} (chaos)")
    return lines


def serve_main(argv: List[str]) -> int:
    from ..obs.control import ChaosSchedule, SteerError, control_scope
    from ..scenario import Scenario
    from .cli import load_chaos
    from .trace_run import non_negative_float, non_negative_int, positive_count

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a scenario under a scripted workload, replay a "
                    "chaos schedule, and print the deterministic summary.")
    parser.add_argument("scenario", nargs="?", default="campus",
                        choices=("campus", "wan", "europe"),
                        help="world kind (default campus)")
    parser.add_argument("--sites", type=positive_count, default=6,
                        metavar="N")
    parser.add_argument("--nodes", type=positive_count, default=4,
                        metavar="N", help="worker nodes per site")
    parser.add_argument("--jobs", type=positive_count, default=12,
                        metavar="N", help="driver submissions (default 12)")
    parser.add_argument("--gap", type=non_negative_float, default=15.0,
                        metavar="S", help="sim-seconds between submissions")
    parser.add_argument("--runtime", type=non_negative_float, default=60.0,
                        metavar="S", help="per-job CPU time in sim-seconds")
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--broker-mode", default="push",
                        choices=("push", "pull", "data"))
    parser.add_argument("--chaos", metavar="PATH",
                        help="chaos schedule JSON to replay")
    args = parser.parse_args(argv)

    schedule: Optional[ChaosSchedule] = None
    if args.chaos:
        schedule = load_chaos(parser, args.chaos)

    with control_scope(schedule=schedule) as worlds:
        handle = Scenario(
            sites=args.sites, scenario=args.scenario,
            nodes_per_site=args.nodes, seed=args.seed,
            broker_mode=args.broker_mode).build()
        (world,) = worlds
        proc = handle.env.process(
            _driver(handle, world, args.jobs, args.gap, args.runtime),
            name="serve/driver")
        try:
            handle.run(until=proc)
        except SteerError as exc:
            parser.error(f"--chaos {args.chaos}: {exc}")
    print("\n".join(_summary(world, handle)))
    return 0


__all__ = ["serve_main"]
