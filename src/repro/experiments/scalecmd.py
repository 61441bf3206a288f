"""``repro scale``: generate, replay, and verify large job campaigns.

Three subcommands, all O(1) in campaign size:

``repro scale generate``
    Stream a synthesized campaign (:mod:`repro.workloads.scale`)
    straight into a v2 NDJSON trace file — arrivals are produced,
    serialized, and dropped one at a time, so a 10⁷-job trace needs no
    more memory than a 10²-job one.

``repro scale replay TRACE``
    Stream an existing trace (v1 or v2) through the bounded
    :class:`~repro.workloads.scale.CampaignStats` fold and print the
    aggregate characterization.

``repro scale verify``
    The CI equivalence gate: generate the same campaign twice — once
    eagerly materialised, once streamed (including a round trip through
    a trace file) — and require identical aggregates.  Exit 0 iff every
    path agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

from ..metrics import AsciiTable
from ..sim import RandomStreams
from ..workloads.scale import (
    CURVES,
    RUNTIME_DISTS,
    CampaignStats,
    ScaleConfig,
    iter_campaign,
    summarize_campaign,
)
from ..workloads.traces import iter_trace, save_trace, trace_header


def _config_from_args(args: argparse.Namespace) -> ScaleConfig:
    return ScaleConfig(jobs=args.jobs, base_rate=args.base_rate,
                       curve=args.curve, runtime_dist=args.dist,
                       users=args.users)


def _add_campaign_args(parser: argparse.ArgumentParser,
                       default_jobs: int) -> None:
    parser.add_argument("--jobs", type=int, default=default_jobs,
                        help=f"campaign size (default {default_jobs:,})")
    parser.add_argument("--seed", type=int, default=2006,
                        help="RNG seed (default 2006)")
    parser.add_argument("--curve", choices=CURVES, default="diurnal",
                        help="arrival-rate curve (default diurnal)")
    parser.add_argument("--dist", choices=RUNTIME_DISTS, default="lognormal",
                        help="runtime distribution (default lognormal)")
    parser.add_argument("--base-rate", type=float, default=50.0,
                        help="baseline arrival rate, jobs/s (default 50)")
    parser.add_argument("--users", type=int, default=1_000_000,
                        help="synthetic user population (default 1,000,000)")


def _stats_table(stats: CampaignStats, title: str) -> AsciiTable:
    table = AsciiTable(["metric", "value"], title=title)
    table.add_row("jobs", stats.jobs)
    table.add_row("interactive", stats.interactive)
    table.add_row("batch", stats.batch)
    table.add_row("shared", stats.shared)
    table.add_row("span (s)", round(stats.span, 1))
    table.add_row("rate (jobs/s)", round(stats.arrival_rate, 3))
    if stats.jobs:
        table.add_row("runtime p50 (s)",
                      round(stats.runtime_sketch.quantile(50), 2))
        table.add_row("runtime p95 (s)",
                      round(stats.runtime_sketch.quantile(95), 2))
        table.add_row("runtime p99 (s)",
                      round(stats.runtime_sketch.quantile(99), 2))
    return table


def _generate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    stats = CampaignStats()

    def observed():
        for arrival in iter_campaign(RandomStreams(args.seed), config):
            stats.observe(arrival)
            yield arrival

    description = (f"scale campaign: curve={args.curve} dist={args.dist} "
                   f"seed={args.seed}")
    written = save_trace(observed(), args.out, description=description,
                         count=args.jobs)
    print(_stats_table(stats, f"Generated {written:,} jobs -> {args.out}")
          .render())
    return 0


def _replay(args: argparse.Namespace) -> int:
    header = trace_header(args.trace)
    stats = summarize_campaign(iter_trace(args.trace))
    title = (f"Replayed {stats.jobs:,} jobs from {args.trace} "
             f"(trace v{header['version']})")
    print(_stats_table(stats, title).render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "campaign": stats.to_dict()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _verify(args: argparse.Namespace) -> int:
    """Streamed == eager == trace-round-trip, on identical aggregates."""
    config = _config_from_args(args)

    eager_arrivals = list(iter_campaign(RandomStreams(args.seed), config))
    eager = summarize_campaign(eager_arrivals).to_dict()
    streamed = summarize_campaign(
        iter_campaign(RandomStreams(args.seed), config)).to_dict()

    fd, trace_path = tempfile.mkstemp(suffix=".trace", prefix="scale-verify-")
    os.close(fd)
    try:
        save_trace(iter_campaign(RandomStreams(args.seed), config),
                   trace_path, count=args.jobs)
        replayed = summarize_campaign(iter_trace(trace_path)).to_dict()
    finally:
        os.remove(trace_path)

    failures = []
    if streamed != eager:
        failures.append("streamed generation != eager generation")
    if replayed != eager:
        failures.append("trace round-trip != eager generation")
    label = (f"{args.jobs:,} jobs, curve={args.curve}, dist={args.dist}, "
             f"seed={args.seed}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure} ({label})")
        return 1
    print(f"OK: streamed, eager, and trace-replayed aggregates identical "
          f"({label})")
    return 0


def scale_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro scale",
        description="Trace-driven large-campaign workloads with "
                    "bounded-memory statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="synthesize a campaign into a v2 trace file")
    _add_campaign_args(gen, default_jobs=1_000_000)
    gen.add_argument("--out", required=True, metavar="PATH",
                     help="trace file to write (NDJSON, atomic)")

    rep = sub.add_parser("replay",
                         help="stream a trace through the statistics fold")
    rep.add_argument("trace", help="trace file (v1 or v2)")
    rep.add_argument("--json", metavar="PATH",
                     help="also write aggregates as JSON")

    ver = sub.add_parser("verify",
                         help="assert streamed == eager == trace round trip")
    _add_campaign_args(ver, default_jobs=100_000)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _generate(args)
        if args.command == "replay":
            return _replay(args)
        return _verify(args)
    except (ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # Config validation (negative jobs, bad amplitude) and file
        # errors get the argparse treatment, not a traceback.  (A closed
        # stdout is not among them: `cli.main` answers BrokenPipeError.)
        print(f"repro scale {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(scale_main(sys.argv[1:]))
