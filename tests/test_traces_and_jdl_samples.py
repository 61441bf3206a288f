"""Workload trace files and the shipped sample JDL documents."""

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.jdl import JobDescription, parse_expression
from repro.jdl.expr import Context, evaluate
from repro.sim import RandomStreams
from repro.workloads import (
    MixConfig,
    generate_mix,
    iter_trace,
    load_trace,
    save_trace,
    trace_header,
)
from repro.workloads.mixes import JobArrival

EXAMPLES_JDL = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "jdl")


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        arrivals = generate_mix(RandomStreams(42), MixConfig(horizon=2000))
        path = str(tmp_path / "mix.json")
        save_trace(arrivals, path, description="unit test")
        loaded = load_trace(path)
        assert len(loaded) == len(arrivals)
        for original, restored in zip(arrivals, loaded):
            assert restored.at == original.at
            assert restored.runtime == original.runtime
            assert restored.job.job_id == original.job.job_id
            assert restored.job.owner == original.job.owner
            assert restored.job.category == original.job.category
            assert restored.job.machine_access == original.job.machine_access
            assert restored.job.performance_loss \
                == original.job.performance_loss

    def test_loaded_sorted_even_if_file_is_not(self, tmp_path):
        arrivals = generate_mix(RandomStreams(7), MixConfig(horizon=1500))
        path = str(tmp_path / "mix.json")
        save_trace(list(reversed(arrivals)), path)
        loaded = load_trace(path)
        times = [a.at for a in loaded]
        assert times == sorted(times)

    def test_rich_jobs_round_trip_with_full_fidelity(self, tmp_path):
        """Regression: estimates, sandboxes, expressions, the pinned
        shadow port, and raw matchmaking attributes all survive a
        save/load cycle (they used to be silently dropped)."""
        from repro.jdl import JobCategory, MachineAccess

        job = JobDescription(
            executable="steer", arguments=("--fast", "1"),
            owner="alice", category=JobCategory.INTERACTIVE,
            machine_access=MachineAccess.SHARED, performance_loss=25,
            estimated_runtime=321.5,
            input_sandbox=(("config.dat", 2048), ("model.bin", 1 << 20)),
            output_sandbox=(("result.out", 4096),),
            requirements=parse_expression('other.arch == "x86_64"'),
            rank=parse_expression("other.freecpus"),
            shadow_port=6117,
            job_id="rich-000",
        )
        job.raw["experiment"] = "atlas"
        path = str(tmp_path / "rich.trace")
        save_trace([JobArrival(1.5, job, 321.5)], path)
        restored = load_trace(path)[0].job
        assert restored.estimated_runtime == 321.5
        assert restored.input_sandbox == job.input_sandbox
        assert restored.output_sandbox == job.output_sandbox
        assert str(restored.requirements) == str(job.requirements)
        assert str(restored.rank) == str(job.rank)
        assert restored.shadow_port == 6117
        assert restored.raw.get("experiment") == "atlas"

    def test_falsy_job_id_survives_round_trip(self, tmp_path):
        """Regression: ``if job_id:`` replaced empty-string ids with
        freshly generated ones on load."""
        arrival = generate_mix(RandomStreams(1), MixConfig(horizon=900))[0]
        arrival.job.job_id = ""
        path = str(tmp_path / "falsy.trace")
        save_trace([arrival], path)
        assert load_trace(path)[0].job.job_id == ""

    def test_v2_header_and_streaming_reader(self, tmp_path):
        arrivals = generate_mix(RandomStreams(5), MixConfig(horizon=1200))
        path = str(tmp_path / "v2.trace")
        written = save_trace(iter(arrivals), path, description="stream me",
                             count=len(arrivals))
        assert written == len(arrivals)
        header = trace_header(path)
        assert header == {"version": 2, "description": "stream me",
                          "jobs": len(arrivals)}
        streamed = list(iter_trace(path))
        assert [a.job.job_id for a in streamed] == \
               [a.job.job_id for a in arrivals]

    def test_v1_documents_remain_readable(self, tmp_path):
        from repro.workloads.traces import arrival_to_record

        arrivals = generate_mix(RandomStreams(6), MixConfig(horizon=1000))
        path = tmp_path / "v1.trace"
        path.write_text(json.dumps(
            {"version": 1, "description": "legacy",
             "jobs": [arrival_to_record(a) for a in arrivals]}, indent=2))
        loaded = load_trace(str(path))
        assert [a.job.job_id for a in loaded] == \
               [a.job.job_id for a in arrivals]
        assert trace_header(str(path))["version"] == 1

    def test_interrupted_save_leaves_existing_trace_intact(self, tmp_path):
        """Saves are atomic: a mid-write crash must neither truncate the
        existing file nor leave a temp file behind."""
        arrivals = generate_mix(RandomStreams(7), MixConfig(horizon=900))
        path = str(tmp_path / "atomic.trace")
        save_trace(arrivals, path)
        before = open(path, encoding="utf-8").read()

        def exploding():
            yield arrivals[0]
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            save_trace(exploding(), path)
        assert open(path, encoding="utf-8").read() == before
        assert os.listdir(tmp_path) == ["atomic.trace"]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)),
        min_size=1, max_size=8))
    def test_float_fields_round_trip_exactly(self, rows):
        """Property: arbitrary arrival/runtime floats survive the JSON
        record layer bit-for-bit (repr-based float serialization)."""
        from repro.workloads.traces import (arrival_to_record,
                                            record_to_arrival)

        for i, (at, runtime) in enumerate(rows):
            job = JobDescription(executable="probe", owner="prop",
                                 estimated_runtime=runtime,
                                 job_id=f"prop-{i}")
            record = json.loads(json.dumps(
                arrival_to_record(JobArrival(at, job, runtime))))
            back = record_to_arrival(record)
            assert back.at == at
            assert back.runtime == runtime
            assert back.job.estimated_runtime == runtime
            assert back.job.job_id == f"prop-{i}"

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "jobs": []}')
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_replayable_against_broker(self, tmp_path):
        from repro.core import CrossBroker
        from repro.jdl import JobCategory
        from repro.workloads import cpu_bound_app, immediate_output_app, replay

        arrivals = generate_mix(
            RandomStreams(3),
            MixConfig(horizon=600, batch_interarrival=200,
                      interactive_interarrival=200))
        path = str(tmp_path / "mix.json")
        save_trace(arrivals, path)
        loaded = load_trace(path)

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=4, seed=3,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)

        def behavior_for(arrival, rank):
            if arrival.job.category is JobCategory.BATCH:
                return cpu_bound_app(min(arrival.runtime, 60))
            return immediate_output_app(run_for=min(arrival.runtime, 30))

        submitted, feeder = replay(tb.env, broker, loaded, behavior_for)
        tb.env.run(until=feeder)
        tb.env.run(until=tb.env.now + 600)
        assert submitted
        assert any(s.report.success for s in submitted)


class TestSampleJdlFiles:
    def test_all_samples_parse_and_validate(self):
        paths = sorted(glob.glob(os.path.join(EXAMPLES_JDL, "*.jdl")))
        assert len(paths) >= 3
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                job = JobDescription.from_jdl(fh.read())
            job.validate()

    def test_figure2_sample_attributes(self):
        with open(os.path.join(EXAMPLES_JDL, "interactive_mpi.jdl"),
                  encoding="utf-8") as fh:
            job = JobDescription.from_jdl(fh.read())
        assert job.node_number == 2
        assert job.console_agents == 2
        assert job.wants_shared_vm

    def test_batch_sample_sandboxes(self):
        with open(os.path.join(EXAMPLES_JDL, "batch_simulation.jdl"),
                  encoding="utf-8") as fh:
            job = JobDescription.from_jdl(fh.read())
        assert job.input_sandbox[0] == ("geometry.db", 2097152)
        assert job.output_sandbox[1] == ("run.log", 1 << 20)
        assert job.requirements is not None


class TestExpressionStringRoundTrip:
    CASES = [
        "other.FreeCPUs >= 2 && other.OpSys == \"Linux\"",
        "other.FreeCPUs * 2 + 1",
        "!(other.Busy) || self.NodeNumber < 4",
        "Member(\"cms\", other.Tags)",
        "-(3) + other.CpuMHz / 2",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_str_reparses_to_equal_semantics(self, source):
        first = parse_expression(source)
        second = parse_expression(str(first))
        context = Context(
            {"nodenumber": 2},
            {"FreeCPUs": 3, "OpSys": "Linux", "Busy": False,
             "Tags": ["cms", "atlas"], "CpuMHz": 2400})
        assert evaluate(first, context) == evaluate(second, context)
        assert str(second) == str(first)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-100, 100), b=st.integers(1, 100),
           op=st.sampled_from(["+", "-", "*", "<", ">=", "=="]))
    def test_random_binary_roundtrip(self, a, b, op):
        source = f"({a}) {op} ({b})"
        first = parse_expression(source)
        second = parse_expression(str(first))
        context = Context({}, {})
        assert evaluate(first, context) == evaluate(second, context)
