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

Live mode (against a ``repro serve`` control plane, or a snapshot file)::

    repro top --watch 2 --url http://127.0.0.1:8080
    repro top --watch 2 --from-file snapshot.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from typing import Any, Dict, List

from .cli import DEFAULT_CACHE_DIR, worker_count

#: ANSI clear-screen + cursor-home between live re-renders.
_CLEAR = "\x1b[2J\x1b[H"


def _render_tables(merged: Dict[str, Any], title: str,
                   series_note: str = "") -> str:
    from ..metrics import (
        telemetry_counters_table,
        telemetry_gauges_table,
        telemetry_histograms_table,
        telemetry_overview,
    )

    parts = [telemetry_counters_table(
        merged, title=f"Telemetry counters — {title}").render(), ""]
    parts += [telemetry_gauges_table(
        merged, title=f"Telemetry gauges — {title}").render(), ""]
    if merged.get("histograms"):
        parts += [telemetry_histograms_table(
            merged, title=f"Telemetry histograms — {title}").render(), ""]
    parts += [f"Time series — {title}{series_note}",
              telemetry_overview(merged)]
    return "\n".join(parts)


def _live_header(snap: Dict[str, Any]) -> str:
    state = "finished" if snap.get("finished") else "running"
    lines = [f"t={snap.get('time', 0.0):.2f} sim-s ({state}); "
             f"{len(snap.get('fired') or [])} steering verbs fired"]
    world = snap.get("world") or {}
    for row in world.get("sites", []):
        flags = ("".join([" drained" if row.get("drained") else "",
                          "" if row.get("up", True) else " DOWN"]))
        lines.append(f"  {row['site']}: {row['running']} running, "
                     f"{row['queued']} queued, {row['free']}/"
                     f"{row['total']} free{flags}")
    return "\n".join(lines)


def _watch(args: argparse.Namespace) -> int:
    """Re-render the telemetry tables from a live snapshot source."""
    from ..obs.serve import fetch_snapshot

    def read_snapshot() -> Dict[str, Any]:
        if args.from_file:
            with open(args.from_file, encoding="utf-8") as fh:
                return json.load(fh)
        return fetch_snapshot(args.url)

    pause = threading.Event()
    title = args.from_file or args.url
    while True:
        snap = read_snapshot()
        merged = snap.get("telemetry")
        body = [_live_header(snap), ""]
        if merged is not None:
            body.append(_render_tables(merged, title))
        else:
            body.append("(no telemetry registry installed on this run)")
        out = "\n".join(body)
        if args.watch:
            print(_CLEAR + out, flush=True)
        else:
            print(out)
        if not args.watch or snap.get("finished"):
            return 0
        pause.wait(args.watch)


def top_main(argv: List[str]) -> int:
    from ..runner import all_specs, run_experiment

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Run one experiment with telemetry installed and "
                    "render its end-of-run metrics summary; or watch a "
                    "live `repro serve` control plane.")
    parser.add_argument("experiment", nargs="?",
                        help="experiment name (omit with --url/--from-file)")
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
    parser.add_argument("--watch", type=float, default=0.0, metavar="N",
                        help="re-render every N seconds (live sources "
                             "until the run finishes)")
    parser.add_argument("--url", metavar="URL",
                        help="a `repro serve` base URL to read /snapshot "
                             "from")
    parser.add_argument("--from-file", metavar="PATH",
                        help="a snapshot JSON file to render instead of "
                             "running an experiment")
    args = parser.parse_args(argv)

    if args.url or args.from_file:
        if args.url and args.from_file:
            parser.error("--url and --from-file are mutually exclusive")
        return _watch(args)
    if args.experiment is None:
        parser.error("an experiment name is required unless --url or "
                     "--from-file is given")
    if args.watch:
        parser.error("--watch needs a live source (--url or --from-file)")

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

    print(_render_tables(
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
