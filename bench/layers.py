"""Spans and layer attribution for the traced round.

Everything here observes the program from outside: spans are recorded
around calls *into* a layer by wrappers installed with plain attribute
assignment (and restored in ``finally``), and the kernel profiler's
``process:/callback:/timer:`` sites are folded onto ``src/repro/``
packages by the file their code object lives in.  Nothing in
``src/repro`` knows this module exists.

A layer's self time is the self time of the spans tagged with it (span
minus children) plus the profiler sites that fold onto it.  The names in
:data:`PARTITION` split a traced round's wall exactly: their sum is the
round's wall (``bench/test_bench.py`` holds that to 2 %).
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Packages of ``src/repro`` that get a ``<layer>.self_s`` of their own.
#: Code anywhere else (jdl, interposition, codec, the benchmark's own
#: bookkeeping) lands in ``other.self_s`` so the partition stays whole.
LAYERS = ("core", "net", "grid", "streaming", "multiprog", "baselines",
          "experiments", "workloads", "runner", "metrics", "scenario")

#: The metric names whose values sum to the traced round's wall.
PARTITION = tuple(
    ["sim.loop_self_s", "sim.callback_self_s", "sim.timer_other_s"]
    + [f"{layer}.self_s" for layer in LAYERS] + ["other.self_s"])

#: ``timer:<name>`` sites carry no code object, only the name the layer
#: gave the timer, and most names embed a site or a job id.  A name is
#: reduced to its *family* — the first matching prefix here, else the
#: first matching suffix — which both bounds the number of sites and
#: names the layer.  Unmatched names stay whole and count as
#: ``sim.timer_other_s``.
TIMER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("lrms/", "grid"), ("mds-push/", "grid"), ("site-agent/", "grid"),
    ("staging/", "grid"), ("retrieve/", "grid"),
    ("broker/boot-poll/", "core"), ("broker/queue-poll/", "core"),
    ("broker/", "core"), ("fairshare/", "core"),
    ("mix/", "workloads"),
    ("t1/", "experiments"), ("selscale/", "experiments"),
    ("saturation/", "experiments"), ("bm/", "experiments"),
    ("drill/", "experiments"), ("trace/", "experiments"),
    ("js/", "streaming"), ("ca/", "streaming"),
)
TIMER_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("/retry", "streaming"), ("/pace", "streaming"),
    ("/timer", "streaming"), ("/eof-drain", "streaming"),
    ("/spool-in-pace", "streaming"),
)
_TIMER_LAYERS = dict(
    [(f"{prefix}*", layer) for prefix, layer in TIMER_PREFIXES]
    + [(f"*{suffix}", layer) for suffix, layer in TIMER_SUFFIXES])


def timer_site(timer: Any) -> str:
    """Replacement for ``KernelProfiler.timer_site``: the timer's family."""
    name = getattr(timer, "name", None) or "<anonymous>"
    for prefix, _ in TIMER_PREFIXES:
        if name.startswith(prefix):
            return f"timer:{prefix}*"
    for suffix, _ in TIMER_SUFFIXES:
        if name.endswith(suffix):
            return f"timer:*{suffix}"
    return f"timer:{name}"


def layer_of_file(filename: str) -> str:
    """The ``src/repro`` package (or top-level module) a file belongs to."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts[:-1]:
        return "other"
    last = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[last + 1:]
    # The kernel microbench bodies are kernel-operation loops that happen
    # to live in experiments/benchcmd.py; they are the sim layer's work.
    if tail[-1] == "benchcmd.py":
        return "sim"
    return tail[0][:-3] if tail[0].endswith(".py") else tail[0]


def make_site_of() -> Any:
    """Replacement for ``KernelProfiler.site_of``: keys a site by the file
    of its code object, because ``_run``, ``_loop`` and ``driver`` occur in
    several packages and the stock key (the bare code name) merges them.
    Called once per kernel callback, so site strings are memoised per code
    object."""
    known: Dict[Any, str] = {}

    def site_of(callback: Any) -> str:
        generator = getattr(callback, "_generator", None)
        if generator is not None:
            kind, code = "process", getattr(generator, "gi_code", None)
        else:
            func = getattr(callback, "__func__", callback)
            kind, code = "callback", getattr(func, "__code__", None)
        if code is None:
            return f"{kind}:other/?:{type(callback).__name__}"
        site = known.get(code)
        if site is None:
            site = known[code] = (
                f"{kind}:{layer_of_file(code.co_filename)}/"
                f"{os.path.basename(code.co_filename)}:{code.co_name}")
        return site

    return site_of


def layer_of_site(site: str) -> str:
    """``sim`` | a LAYERS member | ``other`` | ``timer_other``."""
    kind, _, rest = site.partition(":")
    if kind == "timer":
        return _TIMER_LAYERS.get(rest, "timer_other")
    layer = rest.split("/", 1)[0]
    return layer if layer == "sim" or layer in LAYERS else "other"


class Recorder:
    """In-memory spans: name, layer, start, end, parent, round id."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.round = 0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name, "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round, "start": perf_counter() - self.t0,
            "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self.t0
            self._stack.pop()


def _wrap(recorder: Recorder, original: Any, name: str, layer: str) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name, layer):
            return original(*args, **kwargs)
    return wrapper


def _wrap_env_run(recorder: Recorder, original: Any) -> Any:
    """``Environment.run`` as a span that carries the profiler's per-site
    deltas for that run as aggregate rows (count, total) — not one span
    per callback."""
    def run(env: Any, until: Any = None) -> Any:
        profiler = env.profiler
        before = ({site: (s.count, s.total)
                   for site, s in profiler.sites.items()}
                  if profiler is not None else {})
        with recorder.span("sim.run", "sim") as span:
            try:
                return original(env, until)
            finally:
                if profiler is not None:
                    rows = []
                    for site, stats in profiler.sites.items():
                        count0, total0 = before.get(site, (0, 0.0))
                        if stats.count != count0:
                            rows.append([site, stats.count - count0,
                                         stats.total - total0])
                    span["sites"] = rows
    return run


@contextmanager
def patched(recorder: Recorder, profile: bool) -> Iterator[List[Any]]:
    """Install every boundary wrapper (and, with ``profile``, the kernel
    profiler + telemetry registries); yields the list of telemetry
    registries, one per environment built inside the block."""
    from repro import Scenario
    from repro.experiments.cli import CANONICAL_ORDER
    from repro.experiments.common import ExperimentResult
    from repro.obs import KernelProfiler, profile_scope, telemetry_scope
    from repro.runner import ResultCache, get_spec, register
    from repro.sim import Environment

    specs = [get_spec(name) for name in CANONICAL_ORDER]
    saved = [(ResultCache, "get", ResultCache.get),
             (ResultCache, "put", ResultCache.put),
             (ExperimentResult, "render", ExperimentResult.render),
             (Scenario, "build", Scenario.build),
             (Environment, "run", Environment.run),
             (KernelProfiler, "site_of", KernelProfiler.__dict__["site_of"]),
             (KernelProfiler, "timer_site",
              KernelProfiler.__dict__["timer_site"])]
    try:
        for spec in specs:
            register(dataclasses.replace(
                spec,
                plan=_wrap(recorder, spec.plan, "runner.plan", "runner"),
                run_cell=_wrap(recorder, spec.run_cell, "runner.run_cell",
                               "experiments"),
                merge=_wrap(recorder, spec.merge, "runner.merge", "runner")))
        ResultCache.get = _wrap(recorder, ResultCache.get,
                                "runner.cache_get", "runner")
        ResultCache.put = _wrap(recorder, ResultCache.put,
                                "runner.cache_put", "runner")
        ExperimentResult.render = _wrap(recorder, ExperimentResult.render,
                                        "metrics.render", "metrics")
        Scenario.build = _wrap(recorder, Scenario.build, "scenario.build",
                               "scenario")
        Environment.run = _wrap_env_run(recorder, Environment.run)
        KernelProfiler.site_of = staticmethod(make_site_of())
        KernelProfiler.timer_site = staticmethod(timer_site)
        if profile:
            # series=False: the round needs the counters, not the
            # per-update time series (which only cost memory here).
            with telemetry_scope(series=False) as registries, \
                    profile_scope():
                yield registries
        else:
            yield []
    finally:
        for spec in specs:
            register(spec)
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def fold(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer self seconds, per-layer resume counts and per-site
    (count, total) of one round's spans."""
    children: Dict[Optional[int], float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        children[span["parent"]] = children.get(span["parent"], 0.0) + duration
    self_s: Dict[str, float] = {}
    resumes: Dict[str, int] = {}
    sites: Dict[str, List[float]] = {}
    inclusive: Dict[str, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        inclusive[span["name"]] = inclusive.get(span["name"], 0.0) + duration
        own = duration - children.get(span["id"], 0.0)
        if span["name"] != "sim.run":
            self_s[span["layer"]] = self_s.get(span["layer"], 0.0) + own
            continue
        for site, count, total in span.get("sites", ()):
            layer = layer_of_site(site)
            self_s[layer] = self_s.get(layer, 0.0) + total
            resumes[layer] = resumes.get(layer, 0) + count
            row = sites.setdefault(site, [0, 0.0])
            row[0] += count
            row[1] += total
            own -= total
        self_s["loop"] = self_s.get("loop", 0.0) + own
    return {"self_s": self_s, "resumes": resumes, "sites": sites,
            "inclusive": inclusive}


def partition(folded: Dict[str, Any]) -> Dict[str, float]:
    """The :data:`PARTITION` metrics of one folded round."""
    self_s = dict(folded["self_s"])
    out = {"sim.loop_self_s": self_s.pop("loop", 0.0),
           "sim.callback_self_s": self_s.pop("sim", 0.0),
           "sim.timer_other_s": self_s.pop("timer_other", 0.0)}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.pop(layer, 0.0)
    out["other.self_s"] = sum(self_s.values())
    return out
