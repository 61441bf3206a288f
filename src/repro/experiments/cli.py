"""The ``repro`` command line: one subcommand table, one experiment driver.

Usage::

    repro run table1 --quick --parallel 4         # sharded engine + cache
    repro run all --quick --cache-dir .repro-cache
    repro run all --write-md EXPERIMENTS.md
    repro cache ls
    repro cache clear fig6
    repro trace --method virtual-machine --json t.json
    repro trace --chrome trace.json          # Perfetto/Chrome export
    repro run table1 --quick --telemetry     # + telemetry tables on stderr
    repro lint src --json simlint.json       # simlint static analysis

``repro``, ``python -m repro`` and ``python -m repro.experiments`` are
the same entry point (:func:`main`).  Experiments run only through
``repro run``, i.e. :func:`repro.runner.run_experiments`.  Nothing here
times anything: speed is measured one way, by ``bench/run.py`` (see
``bench/README.md``).

Determinism contract: experiment renders go to **stdout**; per-cell
progress and runner statistics go to **stderr**.  ``repro run X
--parallel 4`` therefore produces byte-identical stdout to ``repro run
X --parallel 1`` and to ``repro run X`` (auto) for the same config.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..obs.control import ChaosSchedule
    from .common import ExperimentResult


def write_markdown(results: List[ExperimentResult], path: str) -> None:
    lines = [
        "# EXPERIMENTS — paper vs. reproduction",
        "",
        "Regenerated by `repro run all --write-md EXPERIMENTS.md`.",
        "",
        "Absolute times come from the calibrated discrete-event substrate "
        "(see DESIGN.md); the assertions below check the paper's *shape*: "
        "orderings, ratios, and crossovers.",
        "",
    ]
    for result in results:
        lines.append(result.render_markdown())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


#: Canonical experiment ordering for ``all``: the paper's eleven.
CANONICAL_ORDER = [
    "table1", "fig6", "fig7", "fig8", "selection-scaling",
    "fairshare-saturation", "ablation-buffer", "ablation-retry",
    "ablation-pl", "ablation-degree", "ablation-halflife",
]

#: Default cell-cache directory (override with --cache-dir / env var).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")  # simlint: disable=environ-read -- the CLI *is* the config layer; this is the sanctioned read


def _canonical(names: List[str]) -> List[str]:
    """Order experiment ids canonically, unknown ids last (validated later)."""
    order = {name: i for i, name in enumerate(CANONICAL_ORDER)}
    return sorted(names, key=lambda n: order.get(n, len(order)))


def worker_count(text: str) -> int:
    """``--parallel`` takes a non-negative int; argparse prefixes the
    message with the flag's name."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = auto), not {count}")
    return count


def load_chaos(parser: argparse.ArgumentParser, path: str) -> ChaosSchedule:
    """``--chaos PATH`` as a schedule; a bad file is a usage error."""
    from ..obs.control import ChaosSchedule

    try:
        return ChaosSchedule.load(path)
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        parser.error(f"--chaos {path}: {reason}")


def run_main(argv: List[str]) -> int:
    """``repro run``: the sharded, cached execution engine."""
    from ..runner import all_specs, get_spec, run_experiments

    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run experiments through the sharded cell engine "
                    "with on-disk result caching.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment names or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sample counts (for CI)")
    parser.add_argument("--parallel", type=worker_count, default=0,
                        metavar="N",
                        help="worker processes: 1 = in-process, N = a pool "
                             "of N; default 0 = auto (a pool of the usable "
                             "CPUs)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"cell cache directory "
                             f"(default {DEFAULT_CACHE_DIR!r})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cell cache entirely")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress per-cell progress lines (stderr)")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect sim-time telemetry per cell (tables "
                             "on stderr, JSON with --export; stdout stays "
                             "byte-identical)")
    parser.add_argument("--chaos", metavar="PATH",
                        help="replay a chaos schedule (JSON) inside every "
                             "cell; non-empty schedules bypass the cache")
    parser.add_argument("--write-md", metavar="PATH",
                        help="also write a markdown report")
    parser.add_argument("--export", metavar="DIR",
                        help="dump raw series/checks as CSV + manifest "
                             "(and merged telemetry as JSON)")
    args = parser.parse_args(argv)

    names = args.experiments
    if "all" in names:
        # ``all`` is pinned to the paper's canonical 11: the golden-render
        # CI check diffs its byte-exact output, so opt-in extras
        # (broker-modes, chaos-drill) never leak in.  They stay runnable
        # by name.
        names = list(CANONICAL_ORDER)
    unknown = []
    for name in names:
        try:
            get_spec(name)  # imports only that experiment's module
        except KeyError:
            unknown.append(name)
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; choose from "
                     f"{_canonical(list(all_specs()))} or 'all'")

    progress = (None if args.no_progress
                else lambda line: print(line, file=sys.stderr))
    cache = None if args.no_cache else args.cache_dir
    chaos = None
    bad_verb: Tuple[type, ...] = ()  # nothing to catch without a schedule
    if args.chaos:
        from ..obs.control import SteerError

        # Passed to the engine as a plain dict (picklable for workers).
        chaos = load_chaos(parser, args.chaos).to_dict()
        bad_verb = (SteerError,)

    results: List[ExperimentResult] = []
    try:
        for result in run_experiments(names, quick=args.quick,
                                      parallel=args.parallel, cache=cache,
                                      progress=progress,
                                      telemetry=args.telemetry, chaos=chaos):
            results.append(result)
            print(result.render())
            print()
    except bad_verb as exc:
        # A verb that cannot apply to a world a cell built (an unknown
        # site): a bad schedule, reported like a bad file.
        parser.error(f"--chaos {args.chaos}: {exc}")

    if args.telemetry:
        # Telemetry tables go to stderr: stdout must stay byte-identical
        # with telemetry uninstalled.
        from ..metrics import render_telemetry

        for name, result in zip(names, results):
            telemetry = result.data["telemetry"]
            print(render_telemetry(
                telemetry["merged"], name,
                f" ({len(telemetry['cells'])} cells, merged in plan order)")
                + "\n", file=sys.stderr)
    # Wall-clock/speedup report: stderr, never part of rendered output.
    stats = [result.data["runner"] for result in results]
    print("-- runner statistics " + "-" * 38, file=sys.stderr)
    for stat in stats:
        print(stat.describe(), file=sys.stderr)
    total_wall = sum(s.wall_seconds for s in stats)
    total_cells = sum(s.cell_seconds for s in stats)
    if total_wall > 0:
        print(f"total: {total_wall:.2f}s wall, serial-equivalent "
              f"{total_cells:.2f}s, speedup {total_cells / total_wall:.2f}x",
              file=sys.stderr)

    if args.write_md:
        write_markdown(results, args.write_md)
        print(f"wrote {args.write_md}", file=sys.stderr)
    if args.export:
        from .export import export_all

        written = export_all(results, args.export)
        total = sum(len(v) for v in written.values())
        print(f"exported {total} files to {args.export}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def cache_main(argv: List[str]) -> int:
    """``repro cache {ls,clear}``: inspect/manage the cell cache."""
    from ..metrics import AsciiTable
    from ..runner import ResultCache

    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the on-disk cell cache.")
    parser.add_argument("action", choices=["ls", "clear"])
    parser.add_argument("experiments", nargs="*",
                        help="restrict to these experiments (clear only)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"cell cache directory "
                             f"(default {DEFAULT_CACHE_DIR!r})")
    parser.add_argument("--cells", action="store_true",
                        help="ls: list individual cells, not the summary")
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache_dir)
    if args.action == "ls":
        if args.cells:
            table = AsciiTable(
                ["experiment", "cell", "elapsed (s)", "size (B)"],
                title=f"Cached cells in {cache.directory}")
            for entry in cache.entries():
                table.add_row(entry.experiment_id, "/".join(entry.cell),
                              round(entry.elapsed, 3), entry.size_bytes)
            print(table.render())
            return 0
        rows = cache.summary()
        table = AsciiTable(
            ["experiment", "cells", "bytes", "cell seconds"],
            title=f"Cell cache at {cache.directory}")
        for row in rows:
            table.add_row(row["experiment"], row["cells"], row["bytes"],
                          round(row["cell_seconds"], 2))
        print(table.render())
        if not rows:
            print("(cache is empty)")
        return 0

    # clear
    if args.experiments:
        from . import SPEC_MODULES

        stored = (set(os.listdir(cache.directory))
                  if os.path.isdir(cache.directory) else set())
        unknown = [name for name in args.experiments
                   if name not in SPEC_MODULES and name not in stored]
        if unknown:
            parser.error(f"unknown experiment(s): {unknown}; choose from "
                         f"{_canonical(list(SPEC_MODULES))} or a name stored "
                         f"in {cache.directory}")
        removed = sum(cache.clear(name) for name in args.experiments)
    else:
        removed = cache.clear()
    print(f"removed {removed} cached cell(s) from {cache.directory}")
    return 0


#: The one subcommand table: name -> (module, ``main(argv) -> exit code``).
#: Modules load on dispatch, so ``repro run`` never imports the linter,
#: and ``repro cache`` / ``repro lint`` never import an experiment, numpy
#: or the simulator.
SUBCOMMANDS: Dict[str, Tuple[str, str]] = {
    "run": (".cli", "run_main"),
    "cache": (".cli", "cache_main"),
    "trace": (".trace_run", "trace_main"),
    "serve": (".servecmd", "serve_main"),
    "lint": ("..analysis.cli", "lint_main"),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    usage = (f"usage: repro {{{','.join(SUBCOMMANDS)}}} ...  "
             f"(experiments run as `repro run <name>`)")
    if argv and argv[0] in ("-h", "--help"):
        print(usage)
        return 0
    if not argv or argv[0] not in SUBCOMMANDS:
        print(usage, file=sys.stderr)
        return 2
    module, entry = SUBCOMMANDS[argv[0]]
    try:
        code = getattr(import_module(module, __package__), entry)(argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # `repro ... | head`: the reader left, which is not an error.
        # Point stdout at devnull so the interpreter's exit-time flush
        # of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # Ctrl-C: the cells finished so far are cached; pool workers
        # ignore SIGINT and the runner has shut them down.
        print(f"repro {argv[0]}: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
