"""``repro top`` — end-of-run telemetry summary for one experiment.

A ``top``-like view of what the simulated grid *did*: counters (chunks,
submissions, CPU-seconds by class), gauge ranges (queue depths, slot
occupancy, in-flight bytes), match-latency histograms, and one sparkline
per recorded time series.  The experiment runs through the same sharded
engine as ``repro run`` — snapshots come from the per-cell telemetry
records (cache-aware: previously computed cells replay their stored
snapshots) and are merged in plan order, so the summary is deterministic
across serial, parallel, and cache-hit executions.

Usage::

    repro top table1 --quick
    repro top fig8 --quick --parallel 4 --json top.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .cli import DEFAULT_CACHE_DIR, worker_count


def top_main(argv: List[str]) -> int:
    from ..metrics import render_telemetry
    from ..runner import all_specs, run_experiment

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Run one experiment with telemetry installed and "
                    "render its end-of-run metrics summary.")
    parser.add_argument("experiment", help="experiment name")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sample counts (for CI)")
    parser.add_argument("--parallel", type=worker_count, default=1,
                        metavar="N",
                        help="worker processes (0 = auto, default 1)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the merged snapshot as JSON")
    args = parser.parse_args(argv)

    specs = all_specs()
    if args.experiment not in specs:
        parser.error(f"unknown experiment {args.experiment!r}; choose from "
                     f"{sorted(specs)}")

    cache = None if args.no_cache else args.cache_dir
    result = run_experiment(args.experiment, quick=args.quick,
                            parallel=args.parallel, cache=cache,
                            telemetry=True)
    telemetry = result.data["telemetry"]
    merged = telemetry["merged"]

    print(render_telemetry(
        merged, args.experiment,
        f" ({len(telemetry['cells'])} cells, merged in plan order)"))

    stats = result.data["runner"]
    print(stats.describe(), file=sys.stderr)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


__all__ = ["top_main"]
