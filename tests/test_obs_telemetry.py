"""Tests for the sim-time telemetry registry and its quantile sketch,
the kernel wall-clock profiler, and the Chrome/Perfetto trace_event
exporter (repro.obs)."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    KernelProfiler,
    QuantileSketch,
    Telemetry,
    TimeSeries,
    Tracer,
    chrome_trace,
    export_chrome_trace,
    merge_snapshots,
    profile_scope,
    scope_snapshot,
    telemetry_scope,
)
from repro.sim import Environment, RandomStreams


class TestTimeSeries:
    def test_records_time_value_pairs(self):
        ts = TimeSeries("x", max_points=8)
        ts.record(0.0, 1.0)
        ts.record(2.5, 3.0)
        assert ts.to_list() == [[0.0, 1.0], [2.5, 3.0]]

    def test_decimation_bounds_memory(self):
        ts = TimeSeries("x", max_points=16)
        for i in range(10_000):
            ts.record(float(i), float(i))
        assert len(ts) < 16
        assert ts.stride > 1

    def test_decimation_is_a_pure_function_of_the_offered_sequence(self):
        a, b = TimeSeries("x", max_points=16), TimeSeries("x", max_points=16)
        for i in range(1000):
            a.record(float(i), float(i * 2))
            b.record(float(i), float(i * 2))
        assert a.to_list() == b.to_list()

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_points=1)


class TestQuantileSketch:
    def test_relative_accuracy_vs_exact(self):
        """Every reported quantile is within the alpha bound of exact."""
        gen = RandomStreams(77).stream("sketch/acc")
        values = sorted(float(v) for v in gen.lognormal(3.0, 1.5, size=50_000))
        sketch = QuantileSketch(alpha=0.01)
        for v in values:
            sketch.observe(v)
        for q in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = values[min(len(values) - 1,
                               max(0, math.ceil(len(values) * q / 100) - 1))]
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.011), q

    def test_merge_equals_whole_stream(self):
        """Bucket-count merges are exact: shards fold to the one-pass sketch."""
        gen = RandomStreams(78).stream("sketch/merge")
        values = [float(v) for v in gen.exponential(10.0, size=8_000)]
        whole = QuantileSketch()
        for v in values:
            whole.observe(v)
        merged = QuantileSketch()
        for i in range(0, len(values), 1000):
            shard = QuantileSketch()
            for v in values[i:i + 1000]:
                shard.observe(v)
            merged.merge(shard)
        assert merged.to_dict() == whole.to_dict()
        for q in (50, 95, 99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_negative_and_zero_values(self):
        sketch = QuantileSketch()
        for v in (-100.0, -1.0, 0.0, 0.0, 1.0, 100.0):
            sketch.observe(v)
        assert sketch.quantile(0) == -100.0
        assert sketch.quantile(100) == 100.0
        assert sketch.quantile(50) == pytest.approx(0.0, abs=1e-9)

    def test_dict_round_trip(self):
        sketch = QuantileSketch(alpha=0.02)
        for v in (-3.0, 0.0, 5.0, 7.0):
            sketch.observe(v)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(95) == sketch.quantile(95)

    def test_empty_sketch_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(50))

    def test_mismatched_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


class TestRegistry:
    def test_counter_gauge_histogram(self, env):
        t = Telemetry(env)
        t.counter("c").inc()
        t.counter("c").inc(2.5)
        g = t.gauge("g")
        g.set(3.0)
        g.dec(5.0)
        t.histogram("h").observe(1.0)
        t.histogram("h").observe(3.0)
        snap = t.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == {"last": -2.0, "min": -2.0,
                                       "max": 3.0, "updates": 2}
        h = snap["histograms"]["h"]
        assert h["count"] == 2 and h["mean"] == 2.0
        assert h["min"] == 1.0 and h["max"] == 3.0

    def test_histogram_max_correct_for_all_negative_streams(self, env):
        """Regression: max initialised to 0.0 reported a phantom maximum
        of 0.0 for streams that never observed a non-negative value."""
        t = Telemetry(env)
        h = t.histogram("drift")
        h.observe(-5.0)
        h.observe(-2.0)
        snap = t.snapshot()["histograms"]["drift"]
        assert snap["max"] == -2.0
        assert snap["min"] == -5.0

    def test_empty_histogram_reports_no_extrema(self, env):
        t = Telemetry(env)
        t.histogram("unused")
        snap = t.snapshot()["histograms"]["unused"]
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_histogram_percentiles_within_sketch_error_at_every_length(
            self, env):
        """One mechanism at every stream length: the sketch's rank is
        exact and its value is within alpha = 0.01 of the value at that
        rank (there is no exact-below-a-window regime any more)."""
        for n in (1, 2, 10, 100, 1023, 1024, 1025, 10_000):
            h = Telemetry(env).histogram("w")
            for v in range(1, n + 1):
                h.observe(float(v))
            for q in (50, 95, 99):
                at_rank = float(max(1, math.ceil(n * q / 100)))
                assert h.percentile(q) == pytest.approx(at_rank, rel=0.01), \
                    (n, q)
            assert h.percentile(0) == 1.0 and h.percentile(100) == float(n)

    def test_histogram_percentiles_use_sketch_past_the_window(self, env):
        t = Telemetry(env)
        h = t.histogram("big")
        for v in range(1, 10_001):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(5000.0, rel=0.02)
        assert h.percentile(99) == pytest.approx(9900.0, rel=0.02)

    def test_metrics_are_stable_by_name(self, env):
        t = Telemetry(env)
        assert t.counter("a") is t.counter("a")
        assert t.gauge("b") is t.gauge("b")
        assert t.histogram("c") is t.histogram("c")

    def test_series_stamped_with_sim_time(self, env):
        t = Telemetry(env).install()

        def driver():
            t.gauge("depth").set(1.0)
            yield env.timeout(4.0)
            t.gauge("depth").set(2.0)

        proc = env.process(driver())
        env.run(until=proc)
        assert t.snapshot()["series"]["depth"] == [[0.0, 1.0], [4.0, 2.0]]

    def test_snapshot_is_json_able_and_sorted(self, env):
        t = Telemetry(env)
        for name in ("zz", "aa", "mm"):
            t.counter(name).inc()
        snap = t.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["aa", "mm", "zz"]


class TestHookContract:
    def test_hook_defaults_to_none(self):
        assert Environment().telemetry is None

    def test_install_uninstall(self, env):
        t = Telemetry(env).install()
        assert env.telemetry is t
        t.uninstall()
        assert env.telemetry is None

    def test_recording_consumes_no_kernel_resources(self, env):
        """Observation-only: no events, no eids, no RNG draws."""
        t = Telemetry(env).install()
        before = env._eid
        t.counter("c").inc()
        t.gauge("g").set(9.0)
        t.histogram("h").observe(0.5)
        assert env._eid == before

    def test_scope_installs_on_every_environment(self):
        with telemetry_scope() as registries:
            e1, e2 = Environment(), Environment()
        assert [r.env for r in registries] == [e1, e2]
        assert e1.telemetry is registries[0]
        assert Environment.telemetry_factory is None  # restored
        assert Environment().telemetry is None

    def test_scope_snapshot_merges_in_build_order(self):
        with telemetry_scope() as registries:
            for value in (1.0, 2.0):
                env = Environment()
                env.telemetry.counter("c").inc(value)
        assert scope_snapshot(registries)["counters"]["c"] == 3.0


class TestMergeSnapshots:
    def _snap(self, env_value):
        env = Environment()
        t = Telemetry(env)
        t.counter("c").inc(env_value)
        t.gauge("g").set(env_value)
        t.histogram("h").observe(env_value)
        return t.snapshot()

    def test_counters_sum_gauges_track_last_min_max(self):
        merged = merge_snapshots([self._snap(1.0), self._snap(5.0)])
        assert merged["counters"]["c"] == 6.0
        g = merged["gauges"]["g"]
        assert g["last"] == 5.0 and g["max"] == 5.0 and g["updates"] == 2
        h = merged["histograms"]["h"]
        assert h["count"] == 2 and h["total"] == 6.0 and h["mean"] == 3.0
        # Sketches merge exactly, so percentiles survive the fold: the
        # merged p95 must sit near the larger observation.
        assert h["p50"] == pytest.approx(1.0, rel=0.02)
        assert h["p95"] == pytest.approx(5.0, rel=0.02)

    @staticmethod
    def _registry_snapshot(observations):
        """One environment's snapshot.  Integer-valued observations:
        float sums of them are exact, so splitting a stream cannot move
        a total by a rounding and the properties below hold bit for bit."""
        env = Environment()
        t = Telemetry(env)
        for v in observations:
            t.counter("c").inc(abs(v))
            t.gauge("g").set(v)
            t.histogram("h").observe(v)
        t.histogram("unused")
        return t.snapshot()

    _streams = st.lists(
        st.lists(st.integers(-1000, 1000).map(float), max_size=40),
        min_size=1, max_size=6)

    @settings(max_examples=60, deadline=None)
    @given(observations=_streams.map(lambda cells: cells[0]))
    def test_merge_of_one_snapshot_is_that_snapshot(self, observations):
        """``repro run --telemetry`` (merged) and ``/snapshot`` (one
        registry) must
        show the same numbers for the same stream."""
        snap = self._registry_snapshot(observations)
        assert merge_snapshots([snap]) == snap

    @settings(max_examples=60, deadline=None)
    @given(cells=_streams, data=st.data())
    def test_merge_is_associative_over_plan_order_splits(self, cells, data):
        snaps = [self._registry_snapshot(cell) for cell in cells]
        cut = data.draw(st.integers(0, len(snaps)))
        halves = [merge_snapshots(snaps[:cut]), merge_snapshots(snaps[cut:])]
        assert merge_snapshots(halves) == merge_snapshots(snaps)

    def test_series_concatenate_in_fold_order(self):
        merged = merge_snapshots([self._snap(1.0), self._snap(2.0)])
        assert merged["series"]["c"] == [[0.0, 1.0], [0.0, 2.0]]

    def test_merge_is_fold_order_dependent_but_deterministic(self):
        snaps = [self._snap(1.0), self._snap(2.0)]
        assert merge_snapshots(snaps) == merge_snapshots(snaps)

    def test_empty_inputs(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {},
                 "series": {}}
        assert merge_snapshots([]) == empty
        assert merge_snapshots([{}, {}]) == empty


class TestKernelProfiler:
    @staticmethod
    def _workload(env):
        def child():
            yield env.timeout(1.0)
            return 7

        def root():
            timer = env.timer(name="prof/test")
            yield timer.arm(0.5)
            value = yield env.process(child(), name="child")
            return value

        return env.process(root(), name="root")

    def test_profiled_run_attributes_sites(self):
        env = Environment(profile=True)
        proc = self._workload(env)
        assert env.run(until=proc) == 7
        prof = env.profiler
        assert isinstance(prof, KernelProfiler)
        assert prof.callbacks > 0
        assert prof.run_wall > 0.0
        sites = set(prof.sites)
        assert any(s.startswith("process:") for s in sites)
        assert "timer:prof/test" in sites

    def test_profiled_run_preserves_results(self):
        plain = Environment()
        assert plain.run(until=self._workload(plain)) == 7
        profiled = Environment(profile=True)
        assert profiled.run(until=self._workload(profiled)) == 7
        assert profiled.now == plain.now

    def test_profiler_off_by_default(self):
        assert Environment().profiler is None

    def test_profile_scope_flips_class_default(self):
        assert Environment.default_profile is False
        with profile_scope():
            assert Environment().profiler is not None
        assert Environment.default_profile is False
        assert Environment().profiler is None

    def test_rows_sorted_by_total_then_site(self):
        env = Environment(profile=True)
        env.run(until=self._workload(env))
        rows = env.profiler.rows()
        totals = [(-s.total, s.site) for s in rows]
        assert totals == sorted(totals)
        payload = env.profiler.to_dict()
        assert payload["callbacks"] == env.profiler.callbacks
        json.dumps(payload)  # must be JSON-able


class TestChromeTrace:
    """Schema-shape of the trace_event export (acceptance criterion)."""

    _REQUIRED = {"X": {"ph", "pid", "tid", "name", "cat", "ts", "dur"},
                 "C": {"ph", "pid", "tid", "name", "cat", "ts", "args"},
                 "i": {"ph", "pid", "tid", "name", "cat", "ts", "s"},
                 "M": {"ph", "pid", "tid", "name", "args"}}

    def _populated(self, env):
        tracer = Tracer(env).install()
        telemetry = Telemetry(env).install()

        def driver():
            span = tracer.begin("match", job="job-1")
            telemetry.gauge("queue").set(1.0)
            yield env.timeout(2.0)
            tracer.end(span)
            tracer.event("reconnect", job="job-1", attempt=1)
            telemetry.gauge("queue").set(0.0)
            zero = tracer.begin("submit", job="job-2")
            tracer.end(zero)  # zero-duration: must be clamped, not dropped

        env.run(until=env.process(driver()))
        return tracer, telemetry

    def test_document_schema(self, env):
        tracer, telemetry = self._populated(env)
        doc = chrome_trace(tracer=tracer, telemetry=telemetry)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "i", "M"} <= phases
        for event in doc["traceEvents"]:
            assert self._REQUIRED[event["ph"]] <= set(event), event
            if "ts" in event:
                assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 1.0  # zero-width slices clamped

    def test_sim_seconds_become_microseconds(self, env):
        tracer, _ = self._populated(env)
        doc = chrome_trace(tracer=tracer)
        match = next(e for e in doc["traceEvents"]
                     if e["ph"] == "X" and e["name"] == "match")
        assert match["ts"] == 0.0
        assert match["dur"] == pytest.approx(2.0 * 1e6)

    def test_job_tids_assigned_in_first_appearance_order(self, env):
        tracer, _ = self._populated(env)
        doc = chrome_trace(tracer=tracer)
        names = {e["tid"]: e["args"]["name"]
                 for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names[0] == "(global)"
        assert names[1] == "job-1" and names[2] == "job-2"

    def test_counter_tracks_from_snapshot_dict(self, env):
        _, telemetry = self._populated(env)
        doc = chrome_trace(snapshot=telemetry.snapshot())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [1.0, 0.0]
        assert all(e["name"] == "queue" for e in counters)

    def test_export_is_valid_json_and_deterministic(self, env, tmp_path):
        tracer, telemetry = self._populated(env)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        n = export_chrome_trace(str(a), tracer=tracer, telemetry=telemetry)
        export_chrome_trace(str(b), tracer=tracer, telemetry=telemetry)
        doc = json.loads(a.read_text(encoding="utf-8"))
        assert len(doc["traceEvents"]) == n > 0
        assert a.read_bytes() == b.read_bytes()


class TestTraceExportCli:
    def test_trace_export_writes_chrome_json(self, tmp_path, capsys):
        from repro.experiments.trace_run import trace_main

        out = tmp_path / "trace.json"
        rc = trace_main(["--chrome", str(out), "--method", "idle",
                         "--jobs", "1", "--sites", "4", "--telemetry"])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        assert "C" in phases  # telemetry counter tracks ride along
        assert "wrote" in capsys.readouterr().out
