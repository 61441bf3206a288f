"""Tests for the span-based tracing layer (repro.obs) and its exporters."""

from __future__ import annotations

import json

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
from repro.obs import PHASES, PhaseStats, Tracer
from repro.sim import Environment


class TestSpans:
    def test_begin_end_records_elapsed(self, env):
        tr = Tracer(env)
        span = tr.begin("submit", job="j1")
        env.run(until=env.timeout(2.5))
        tr.end(span)
        assert span.elapsed == pytest.approx(2.5)
        assert span.status == "ok"
        assert tr.phase_stats()["submit"].count == 1

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
        assert tr.phase_stats()["match"].count == 1
        assert tr.phase_stats()["match"].errors == 0

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
        assert agg.count == 1 and agg.errors == 0
        assert tr.job_breakdown("j1")["gram_submit"] == pytest.approx(2.0)

    def test_error_status_counts_as_error(self, env):
        tr = Tracer(env)
        tr.end(tr.begin("gram_submit", job="j"), status="error")
        tr.end(tr.begin("gram_submit", job="j"), status="queued-timeout")
        tr.end(tr.begin("gram_submit", job="j"))
        agg = tr.phase_stats()["gram_submit"]
        assert agg.count == 3 and agg.errors == 2

    def test_span_context_manager_marks_errors(self, env):
        tr = Tracer(env)
        with pytest.raises(ValueError):
            with tr.span("output_retrieval", job="j1"):
                raise ValueError("boom")
        assert tr.spans[-1].status == "error"
        assert tr.phase_stats()["output_retrieval"].errors == 1

    def test_max_spans_bounds_retention_not_aggregates(self, env):
        tr = Tracer(env, max_spans=3)
        for _ in range(5):
            tr.end(tr.begin("match"))
        assert len(tr.spans) == 3
        assert tr.dropped_spans == 2
        assert tr.phase_stats()["match"].count == 5  # aggregates stay exact

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


class TestCountersAndEvents:
    def test_counters_global_job_site(self, env):
        tr = Tracer(env)
        tr.count("retries", job="j1", site="uab")
        tr.count("retries", n=2, job="j1")
        tr.count("drops", site="uab")
        assert tr.counters == {"retries": 3, "drops": 1}
        assert tr.job_counters["j1"] == {"retries": 3}
        assert tr.site_counters["uab"] == {"retries": 1, "drops": 1}

    def test_event_ring_is_bounded(self, env):
        tr = Tracer(env, ring_size=4)
        for i in range(6):
            tr.event("tick", i=i)
        assert len(tr.events) == 4
        assert [e.data["i"] for e in tr.events] == [2, 3, 4, 5]

    def test_phase_stats_max_correct_for_all_negative_values(self):
        """Regression: max initialised to 0.0 reported a phantom maximum
        for phases whose elapsed values were all negative (clock skew)."""
        stats = PhaseStats("skew", window=16)
        stats.add(-5.0, ok=True)
        stats.add(-2.0, ok=True)
        assert stats.maximum == -2.0
        assert stats.to_dict()["max"] == -2.0

    def test_phase_stats_empty_reports_no_extrema(self):
        payload = PhaseStats("idle", window=16).to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None

    def test_phase_stats_percentiles(self):
        stats = PhaseStats("x", window=100)
        for v in range(1, 101):
            stats.add(float(v), ok=True)
        assert stats.percentile(50) == pytest.approx(50.5)
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 100.0
        assert stats.mean == pytest.approx(50.5)


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
        tr.count("chunks_sent", n=3, job="j1")
        tr.event("drop", sender="s", nbytes=10)
        return tr

    def test_tables_render(self, env):
        tr = self._traced(env)
        text = phase_breakdown_table(tr).render()
        assert "submit" in text and "gram_submit" in text
        assert "p95 (s)" in text
        text = counters_table(tr).render()
        assert "chunks_sent" in text
        text = job_breakdown_table(tr).render()
        assert "j1" in text

    def test_json_roundtrip(self, env, tmp_path):
        tr = self._traced(env)
        path = tmp_path / "trace.json"
        write_trace_json(tr, str(path), extra={"method": "idle"})
        data = json.loads(path.read_text())
        assert data["run"] == {"method": "idle"}
        assert data["phases"]["submit"]["count"] == 1
        assert data["counters"] == {"chunks_sent": 3}
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
        from repro.streaming import InteractiveSession

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=41,
                      publish=False).build().testbed
        env = tb.env
        tracer = Tracer(env).install()
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
        assert tracer.counters["flush_eol"] == 5
        assert tracer.counters["chunks_sent"] >= 5
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

        assert tracer.counters["chunks_sent"] > 5 * 32
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
            assert stats[phase].count >= 1, phase
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
