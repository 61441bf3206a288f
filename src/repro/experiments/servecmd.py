"""``repro serve`` — run a scenario live behind the HTTP control plane.

Builds a Scenario world inside a :func:`repro.obs.control.control_scope`,
drives a stream of interactive jobs through the broker on a background
thread, and serves the :class:`repro.obs.ControlPlaneServer` endpoints in
the foreground::

    repro serve wan --port 8080
    repro serve campus --sites 8 --jobs 30 --rate 20
    repro serve europe --chaos chaos.json --headless

``--headless`` skips the HTTP server entirely: the run executes to
completion (chaos verbs still fire at their scheduled sim-times) and a
deterministic summary is rendered to stdout — same schedule + same seed
produce byte-identical output, which is what the CI chaos-determinism
job diffs.  In serving mode the default pacing slows the clock to
``--rate`` sim-seconds per wall-second so there is something to watch;
headless runs are never paced.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List, Optional


def _driver(handle, controller, jobs: int, gap: float, runtime: float):
    """The served workload: paced submissions, then wait for everything."""
    from ..workloads import synthetic_job
    from .common import drive_paced_jobs

    world = controller.world
    yield from drive_paced_jobs(
        handle,
        (synthetic_job(f"srv-{i:03d}", f"user{i % 3}", runtime, "served-app")
         for i in range(jobs)),
        gap, runtime, "serve/pace",
        on_submit=world.track if world is not None else None)
    yield from handle.broker.drain()


def _summary(controller, handle) -> List[str]:
    """Deterministic end-of-run report (byte-identical across replays)."""
    lines = [f"serve summary @ t={handle.env.now:.3f}"]
    world = controller.world
    if world is not None:
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
    fired = controller.fired
    lines.append(f"  verbs fired: {len(fired)}")
    for record in fired:
        lines.append(f"    t={record['at']:.3f} {record['verb']} "
                     f"({record['source']})")
    return lines


def serve_main(argv: List[str]) -> int:
    from ..obs.control import ChaosSchedule, control_scope
    from ..scenario import Scenario

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a scenario live: SSE telemetry streaming, web "
                    "dashboard, and the /steer chaos API.")
    parser.add_argument("scenario", nargs="?", default="campus",
                        choices=("campus", "wan", "europe"),
                        help="world kind (default campus)")
    parser.add_argument("--sites", type=int, default=6, metavar="N")
    parser.add_argument("--nodes", type=int, default=4, metavar="N",
                        help="worker nodes per site")
    parser.add_argument("--jobs", type=int, default=12, metavar="N",
                        help="driver submissions (default 12)")
    parser.add_argument("--gap", type=float, default=15.0, metavar="S",
                        help="sim-seconds between submissions")
    parser.add_argument("--runtime", type=float, default=60.0, metavar="S",
                        help="per-job CPU time in sim-seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--broker-mode", default="push",
                        choices=("push", "pull", "data"))
    parser.add_argument("--port", type=int, default=8080,
                        help="HTTP port (0 = ephemeral)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port-file", metavar="PATH",
                        help="write the bound port to PATH once listening")
    parser.add_argument("--interval", type=float, default=1.0, metavar="S",
                        help="SSE snapshot period in wall-seconds")
    parser.add_argument("--rate", type=float, default=None, metavar="R",
                        help="sim-seconds per wall-second (default 10 when "
                             "serving, unpaced when --headless)")
    parser.add_argument("--chaos", metavar="PATH",
                        help="chaos schedule JSON to replay")
    parser.add_argument("--headless", action="store_true",
                        help="no HTTP server: run to completion and print "
                             "the deterministic summary")
    args = parser.parse_args(argv)

    schedule: Optional[ChaosSchedule] = None
    if args.chaos:
        schedule = ChaosSchedule.load(args.chaos)
    rate = 0.0 if args.headless else (
        10.0 if args.rate is None else args.rate)

    with control_scope(schedule=schedule, rate=rate) as controllers:
        handle = Scenario(
            sites=args.sites, scenario=args.scenario,
            nodes_per_site=args.nodes, seed=args.seed,
            broker_mode=args.broker_mode,
            trace=True, telemetry=True).build()
        controller = controllers[0]
        proc = handle.env.process(
            _driver(handle, controller, args.jobs, args.gap, args.runtime),
            name="serve/driver")

        if args.headless:
            handle.run(until=proc)
            controller.finish()
            print("\n".join(_summary(controller, handle)))
            return 0

        from ..obs.serve import ControlPlaneServer

        server = ControlPlaneServer(controller, host=args.host,
                                    port=args.port, interval=args.interval)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{server.port}\n")

        def run_sim() -> None:
            try:
                handle.run(until=proc)
            finally:
                controller.finish()

        sim_thread = threading.Thread(target=run_sim, name="repro-sim",
                                      daemon=True)
        sim_thread.start()
        print(f"serving {args.scenario} on {server.url} "
              f"(rate {rate:g} sim-s/s; ctrl-c to stop)", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass  # ctrl-c is the documented way to stop serving
        finally:
            server.shutdown()
            controller.finish()
            sim_thread.join(timeout=5.0)
        print("\n".join(_summary(controller, handle)), file=sys.stderr)
    return 0


__all__ = ["serve_main"]
