"""Tests for the span-based tracing layer (repro.obs) and its exporters."""

from __future__ import annotations

import itertools
import json
import os

import pytest

from repro import Scenario
from repro.jdl import StreamingMode
from repro.metrics import (
    counters_table,
    job_breakdown_table,
    phase_breakdown_table,
    write_trace_csv,
    write_trace_json,
)
from repro.obs import PHASES, Histogram, Tracer
from repro.sim import Environment


class TestSpans:
    def test_begin_end_records_elapsed(self, env):
        tr = Tracer(env)
        span = tr.begin("submit", job="j1")
        env.run(until=env.timeout(2.5))
        tr.end(span)
        assert span.elapsed == pytest.approx(2.5)
        assert span.status == "ok"
        assert tr.phase_stats()["submit"]["count"] == 1

    def test_per_job_nesting(self, env):
        tr = Tracer(env)
        outer = tr.begin("submit", job="j1")
        inner = tr.begin("gram_submit", job="j1", site="uab")
        stranger = tr.begin("submit", job="j2")
        jobless = tr.begin("stream_chunk")
        assert inner.parent is outer and inner.depth == 1
        assert stranger.parent is None  # different job: no nesting
        assert jobless.parent is None  # job-less spans never nest
        for s in (jobless, stranger, inner, outer):
            tr.end(s)
        assert not tr.open_spans()

    def test_end_is_idempotent(self, env):
        tr = Tracer(env)
        span = tr.begin("match", job="j1")
        tr.end(span)
        first_end = span.end
        env.run(until=env.timeout(1.0))
        tr.end(span, status="error")  # no-op: already closed
        assert span.status == "ok"
        assert span.end == first_end  # end time not rewritten
        assert tr.phase_stats()["match"]["count"] == 1
        assert tr.phase_stats()["match"]["errors"] == 0

    def test_double_end_never_double_counts_aggregates(self, env):
        """Regression: a span ended twice (e.g. an error path that also
        runs the normal epilogue) must contribute exactly once to the
        phase aggregates and job breakdown."""
        tr = Tracer(env)
        span = tr.begin("gram_submit", job="j1", site="uab")
        env.run(until=env.timeout(2.0))
        returned = tr.end(span)
        assert returned is span
        for _ in range(3):
            assert tr.end(span, status="error") is span
        agg = tr.phase_stats()["gram_submit"]
        assert agg["count"] == 1 and agg["errors"] == 0
        assert tr.job_breakdown("j1")["gram_submit"] == pytest.approx(2.0)

    def test_error_status_counts_as_error(self, env):
        tr = Tracer(env)
        tr.end(tr.begin("gram_submit", job="j"), status="error")
        tr.end(tr.begin("gram_submit", job="j"), status="queued-timeout")
        tr.end(tr.begin("gram_submit", job="j"))
        agg = tr.phase_stats()["gram_submit"]
        assert agg["count"] == 3 and agg["errors"] == 2

    def test_span_context_manager_marks_errors(self, env):
        tr = Tracer(env)
        with pytest.raises(ValueError):
            with tr.span("output_retrieval", job="j1"):
                raise ValueError("boom")
        assert tr.spans[-1].status == "error"
        assert tr.phase_stats()["output_retrieval"]["errors"] == 1

    def test_max_spans_bounds_retention_not_aggregates(self, env):
        tr = Tracer(env, max_spans=3)
        for _ in range(5):
            tr.end(tr.begin("match"))
        assert len(tr.spans) == 3
        assert tr.dropped_spans == 2
        assert tr.phase_stats()["match"]["count"] == 5  # aggregates exact

    def test_job_breakdown_accumulates(self, env):
        tr = Tracer(env)
        s1 = tr.begin("match", job="j1")
        env.run(until=env.timeout(1.0))
        tr.end(s1)
        s2 = tr.begin("match", job="j1")
        env.run(until=env.timeout(2.0))
        tr.end(s2)
        assert tr.job_breakdown("j1")["match"] == pytest.approx(3.0)
        assert tr.jobs() == ["j1"]

    def test_soak_leaves_every_container_bounded(self, env):
        """10 000 one-span jobs: nothing the tracer holds grows with the
        number of jobs it has seen."""
        tr = Tracer(env, ring_size=100, max_spans=100)
        for i in range(10_000):
            tr.end(tr.begin("submit", job=f"j{i}"))
            tr.event("finished", job=f"j{i}")
        sizes = {name: len(value) for name, value in vars(tr).items()
                 if isinstance(value, (list, dict, type(tr.events)))}
        assert sizes and max(sizes.values()) <= 100, sizes
        assert tr.phase_stats()["submit"]["count"] == 10_000
        assert tr.event_counts == {"finished": 10_000}
        assert tr.dropped_spans == 10_000 - 100


def _ended(tr, name, elapsed):
    """Close a ``name`` span that lasted ``elapsed`` sim-seconds."""
    span = tr.begin(name)
    span.start = tr.env.now - elapsed
    return tr.end(span)


class TestCountersAndEvents:
    def test_event_counts_tally_each_kind(self, env):
        tr = Tracer(env)
        tr.event("retry", job="j1", site="uab")
        tr.event("retry", job="j1")
        tr.event("retry", job="j1")
        tr.event("drop", site="uab")
        assert tr.event_counts == {"retry": 3, "drop": 1}
        # Per-job and per-site views are the rings' own records.
        assert [e.kind for e in tr.job_events] == ["retry"] * 3
        assert [e.kind for e in tr.events
                if e.data.get("site") == "uab"] == ["retry", "drop"]

    def test_event_ring_is_bounded(self, env):
        tr = Tracer(env, ring_size=4)
        for i in range(6):
            tr.event("tick", i=i)
        assert len(tr.events) == 4
        assert [e.data["i"] for e in tr.events] == [2, 3, 4, 5]
        assert tr.event_counts == {"tick": 6}  # the tally forgets nothing

    def test_phase_stats_max_correct_for_all_negative_values(self, env):
        """Regression: max initialised to 0.0 reported a phantom maximum
        for phases whose elapsed values were all negative (clock skew)."""
        tr = Tracer(env)
        _ended(tr, "skew", -5.0)
        _ended(tr, "skew", -2.0)
        assert tr.phase_stats()["skew"]["max"] == -2.0
        assert tr.phase_stats()["skew"]["min"] == -5.0

    def test_phase_stats_empty_reports_no_extrema(self, env):
        assert Tracer(env).phase_stats() == {}
        payload = Histogram("idle").to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None

    def test_phase_stats_percentiles(self, env):
        tr = Tracer(env)
        for v in range(1, 101):
            _ended(tr, "x", float(v))
        stats = tr.phase_stats()["x"]
        # Nearest rank, within the sketch's relative error.
        assert stats["p50"] == pytest.approx(50.0, rel=0.01)
        assert stats["p95"] == pytest.approx(95.0, rel=0.01)
        assert (stats["min"], stats["max"]) == (1.0, 100.0)
        assert stats["mean"] == 50.5 and stats["total"] == 5050.0


class TestInstallAndOrdering:
    def test_environment_hook_defaults_to_none(self):
        assert Environment().tracer is None

    def test_install_uninstall(self, env):
        tr = Tracer(env).install()
        assert env.tracer is tr
        tr.uninstall()
        assert env.tracer is None
        # Uninstalling someone else's tracer is a no-op.
        other = Tracer(env).install()
        tr.uninstall()
        assert env.tracer is other

    def test_phase_stats_canonical_order_first(self, env):
        tr = Tracer(env)
        tr.end(tr.begin("custom_phase"))
        tr.end(tr.begin("match"))
        tr.end(tr.begin("submit"))
        names = list(tr.phase_stats())
        assert names == ["submit", "match", "custom_phase"]
        assert set(PHASES) >= {"submit", "match", "gram_submit"}


class TestExporters:
    def _traced(self, env):
        tr = Tracer(env)
        span = tr.begin("submit", job="j1")
        inner = tr.begin("gram_submit", job="j1", site="uab")
        env.run(until=env.timeout(1.5))
        tr.end(inner)
        tr.end(span)
        tr.event("drop", sender="s", nbytes=10)
        return tr

    def test_tables_render(self, env):
        tr = self._traced(env)
        text = phase_breakdown_table(tr).render()
        assert "submit" in text and "gram_submit" in text
        assert "p95 (s)" in text
        text = counters_table(tr).render()
        assert "drop" in text
        text = job_breakdown_table(tr).render()
        assert "j1" in text

    def test_json_roundtrip(self, env, tmp_path):
        tr = self._traced(env)
        path = tmp_path / "trace.json"
        write_trace_json(tr, str(path), extra={"method": "idle"})
        data = json.loads(path.read_text())
        assert data["run"] == {"method": "idle"}
        assert data["phases"]["submit"]["count"] == 1
        assert data["event_counts"] == {"drop": 1}
        assert len(data["spans"]) == 2
        assert data["events"][0]["kind"] == "drop"
        # to_dict must always be JSON-serialisable.
        json.dumps(tr.to_dict(), default=str)

    def test_csv_export(self, env, tmp_path):
        tr = self._traced(env)
        path = tmp_path / "spans.csv"
        assert write_trace_csv(tr, str(path)) == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("name,job,site,start")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "gram_submit"  # end order


class TestTracedStreaming:
    def test_session_run_populates_stream_counters(self):
        from repro.obs import Telemetry
        from repro.streaming import InteractiveSession

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=41,
                      publish=False).build().testbed
        env = tb.env
        tracer = Tracer(env).install()
        telemetry = Telemetry(env).install()
        session = InteractiveSession(env, tb.network, tb.rng,
                                     tb.calibration.streaming, "ui",
                                     StreamingMode.FAST, n_subjobs=1)
        node = tb.site("uab").nodes[0]

        def app(ctx):
            for i in range(5):
                yield from ctx.io(0.2)
                yield from ctx.stdio.write(f"line {i}", eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(app, "app", interactive=True,
                            setup=session.make_setup(node.name, 0))
        env.run(until=proc)
        env.run(until=env.now + 2)
        assert telemetry.snapshot()["counters"]["buffer.flushes.eol"] == 5
        chunks = tracer.spans_of("stream_chunk")
        assert len(chunks) >= 5
        assert all(s.status == "ok" for s in chunks)


    def test_chunk_events_do_not_evict_the_job_lifecycle(self):
        """A reliable stream logs one ``spool`` event per chunk; over a
        long-running job they roll the shared ring many times over, and
        the job's own lifecycle records must survive that."""
        from repro.core import CrossBroker
        from repro.jdl import JobDescription
        from repro.metrics import render_timeline

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1,
                      seed=43).build().testbed
        env = tb.env
        tracer = Tracer(env, ring_size=32).install()
        broker = CrossBroker(env, tb.network, tb.rng, tb.calibration)

        def app(ctx):
            for i in range(200):
                yield from ctx.io(0.05)
                yield from ctx.stdio.write(f"line {i}", eol=True)
            yield from ctx.stdio.eof()

        job = JobDescription.from_attributes({
            "executable": "chatty",
            "jobtype": ["interactive", "sequential"],
            "streamingmode": "reliable",
        }, owner="alice")
        submitted = broker.submit(job, lambda rank: app)
        env.run(until=submitted.finished)

        chunks = tracer.phase_stats()["stream_chunk"]
        assert chunks["count"] - chunks["errors"] > 5 * 32
        assert "submit" not in {e.kind for e in tracer.events}  # rolled over
        kinds = [e.kind for e in tracer.job_events]
        assert kinds[:2] == ["submit", "selected"]
        assert "finished" in kinds
        assert f"{job.job_id} |[" in render_timeline(tracer)


class TestTraceRunner:
    def test_traced_idle_method_breaks_down_phases(self):
        from repro.experiments.trace_run import run_traced_method

        tracer = run_traced_method("idle", jobs=1, n_sites=4)
        stats = tracer.phase_stats()
        for phase in ("submit", "match", "gram_submit"):
            assert stats[phase]["count"] >= 1, phase
        # The phases nest inside submit, so their sum is bounded by it.
        job = tracer.jobs()[0]
        breakdown = tracer.job_breakdown(job)
        assert breakdown["match"] + breakdown["gram_submit"] \
            <= breakdown["submit"] + 1e-9
        assert not tracer.open_spans()

    @pytest.mark.parametrize("method",
                             ["idle", "virtual-machine", "job+agent"])
    def test_traced_run_is_the_table1_cell(self, method, monkeypatch):
        """``repro trace`` runs Table I's own cell: same clock, same
        events, and the spans *are* the table's columns, to the bit —
        tracing observes, it does not perturb."""
        import itertools

        from repro.experiments.trace_run import run_traced_method
        from repro.obs import telemetry_scope
        from repro.runner import get_spec

        def rewind_ids():
            # Job and message ids come from process-global counters and
            # key RNG streams (ROADMAP 1 W2(a)): start both runs alike.
            monkeypatch.setattr("repro.jdl.job._job_counter",
                                itertools.count(1))
            monkeypatch.setattr("repro.streaming.messages._seq_counter",
                                itertools.count(1))

        spec = get_spec("table1")
        config = spec.make_config(quick=True)
        rewind_ids()
        # series=False: the registry only remembers the environment.
        with telemetry_scope(series=False) as built:
            cell = spec.run_cell(config, ("campus", method))
        [untraced] = [t.env for t in built]
        rewind_ids()
        tracer = run_traced_method(method, jobs=config.jobs_per_method,
                                   seed=config.seed, n_sites=config.n_sites)

        assert (tracer.env.now, tracer.env._eid) \
            == (untraced.now, untraced._eid)
        measured = [s.job for s in sorted(tracer.spans_of("submit"),
                                          key=lambda s: s.start)
                    if s.meta["owner"] != "background"]
        assert [tracer.job_breakdown(j)["match"] for j in measured] \
            == [d + s for d, s in zip(cell.discovery.values,
                                      cell.selection.values)]
        if method == "idle":
            assert [tracer.job_breakdown(j)["gram_submit"]
                    for j in measured] == list(cell.submission.values)

    def test_unknown_method_rejected(self):
        from repro.experiments.trace_run import run_traced_method

        with pytest.raises(ValueError):
            run_traced_method("glogin")

    @pytest.mark.parametrize("path, expected", [
        ("spans.csv", "spans.idle.csv"),
        ("spans", "spans.idle"),
        ("runs.d/spans", "runs.d/spans.idle"),
        ("runs.d/spans.csv", "runs.d/spans.idle.csv"),
    ])
    def test_method_path_names_the_file_not_its_directory(self, path,
                                                          expected):
        from repro.experiments.trace_run import _method_path

        assert _method_path(path, "idle") == expected

    def test_every_output_lands_in_a_dotted_directory(self, tmp_path,
                                                      capsys):
        """Regression: with several methods, ``--csv runs.d/spans`` wrote
        to ``runs.idle.d/spans`` and crashed on the missing directory."""
        from repro.experiments.trace_run import TRACE_METHODS, trace_main

        out = tmp_path / "out.d"
        out.mkdir()
        rc = trace_main(["--jobs", "1", "--sites", "4", "--telemetry",
                         "--json", str(out / "trace.json"),
                         "--csv", str(out / "spans"),
                         "--chrome", str(out / "chrome.json")])
        assert rc == 0
        assert sorted(os.listdir(out)) == sorted(
            ["trace.json"] + [f"spans.{m}" for m in TRACE_METHODS]
            + [f"chrome.{m}.json" for m in TRACE_METHODS])
        assert "Telemetry counters — idle" in capsys.readouterr().out


#: What ``run_traced_method(m, jobs=5, seed=1, telemetry=True)`` reported
#: (job and message ids rewound before each method) while the tracer
#: still kept hand-written counters, a sorted window of durations for
#: its percentiles and per-job totals of its own.
PINS = os.path.join(os.path.dirname(__file__), "data", "tracer_pins.json")

#: Each retired counter -> the event kind whose tally replaces it.
TALLIED = {
    "jobs_failed": "failed", "resubmits": "resubmit",
    "broker_queued": "broker-queued", "vm_miss": "vm-miss",
    "agents_planted": "agent-ready",
    "agent_died_resubmit": "agent-died-resubmit",
    "agents_left": "agent-left", "agents_killed": "agent_killed",
    "chunks_dropped": "drop", "retries": "retry",
    "sender_fatal": "sender_fatal",
}
#: Each retired counter -> the phase whose ``ok`` spans replace it.
OK_SPANS = {"chunks_sent": "stream_chunk", "vm_dispatches": "vm_acquire"}


def _retired_counters(tracer):
    """The old counter map, re-derived from what the tracer records now:
    event tallies, ``ok`` spans, and (``flush_*``) telemetry counters."""
    phases = tracer.phase_stats()
    derived = {old: tracer.event_counts.get(kind, 0)
               for old, kind in TALLIED.items()}
    for old, phase in OK_SPANS.items():
        row = phases.get(phase)
        derived[old] = row["count"] - row["errors"] if row else 0
    for kind, n in tracer.event_counts.items():
        if kind.startswith("steer:"):
            derived["steer." + kind[len("steer:"):]] = n
    telemetry = tracer.env.telemetry.snapshot()["counters"]
    for name, value in telemetry.items():
        if name.startswith("buffer.flushes."):
            derived["flush_" + name[len("buffer.flushes."):]] = int(value)
    return {name: n for name, n in sorted(derived.items()) if n}


class TestTracerPins:
    @pytest.mark.parametrize("method",
                             ["idle", "virtual-machine", "job+agent"])
    def test_every_number_survives_the_fold(self, method, monkeypatch):
        from repro.experiments.trace_run import run_traced_method

        monkeypatch.setattr("repro.jdl.job._job_counter", itertools.count(1))
        monkeypatch.setattr("repro.streaming.messages._seq_counter",
                            itertools.count(1))
        tracer = run_traced_method(method, jobs=5, seed=1, telemetry=True)
        with open(PINS, encoding="utf-8") as fh:
            pinned = json.load(fh)[method]

        stats = tracer.phase_stats()
        assert list(stats) == list(pinned["phases"])
        for name, exact in pinned["phases"].items():
            assert {key: stats[name][key] for key in exact} == exact, name
            durations = sorted(s.elapsed for s in tracer.spans_of(name))
            for q in (50, 95):
                at_rank = durations[-(-len(durations) * q // 100) - 1]
                assert stats[name][f"p{q}"] == pytest.approx(at_rank,
                                                             rel=0.01)
        assert tracer.jobs() == list(pinned["jobs"])
        for job, totals in pinned["jobs"].items():
            assert list(tracer.job_breakdown(job).items()) \
                == list(totals.items()), job
        assert _retired_counters(tracer) == pinned["counters"]
