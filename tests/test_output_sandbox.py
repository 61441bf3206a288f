"""Output-sandbox retrieval (§1's batch workflow final step)."""

import pytest

from repro import Scenario
from repro.core import CrossBroker
from repro.grid import retrieve_output
from repro.jdl import JobDescription
from repro.obs import Tracer
from repro.workloads import cpu_bound_app, immediate_output_app


class TestRetrieveOutputPrimitive:
    def test_time_scales_with_bytes(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=180,
                      publish=False).build().testbed
        env = tb.env
        gk = tb.site("uab").gatekeeper_host

        def run(files):
            def driver():
                elapsed = yield from retrieve_output(
                    env, tb.network, tb.rng, gk, "broker", files)
                return elapsed
            proc = env.process(driver())
            env.run(until=proc)
            return proc.value

        small = run([("out.log", 1000)])
        big = run([("results.h5", 80_000_000)])
        assert big > small * 2


class TestBrokerIntegration:
    def test_batch_output_retrieved(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=181,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        tracer = Tracer(tb.env).install()
        job = JobDescription.from_attributes({
            "executable": "sim",
            "outputsandbox": [("results.dat", 10 << 20), "sim.log"],
        }, owner="alice")
        submitted = broker.submit(job, lambda r: cpu_bound_app(5.0))
        tb.env.run(until=submitted.finished)
        assert submitted.report.success
        assert submitted.report.output_retrieval_time > 0
        assert any(e.kind == "output-retrieved"
                   for e in tracer.job_events)

    def test_no_sandbox_no_cost(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=182,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = JobDescription.from_attributes({"executable": "sim"},
                                             owner="alice")
        submitted = broker.submit(job, lambda r: cpu_bound_app(2.0))
        tb.env.run(until=submitted.finished)
        assert submitted.report.output_retrieval_time == 0.0

    def test_interactive_exclusive_also_retrieves(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=183,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = JobDescription.from_attributes({
            "executable": "viz",
            "jobtype": ["interactive", "sequential"],
            "machineaccess": "exclusive",
            "streamingmode": "fast",
            "outputsandbox": [("frames.tar", 4 << 20)],
        }, owner="alice")
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.success
        assert submitted.report.output_retrieval_time > 0

    def test_wan_retrieval_slower_than_campus(self):
        def retrieval_time(scenario, seed):
            tb = Scenario(sites=1, scenario=scenario, nodes_per_site=1,
                          seed=seed, publish=False).build().testbed
            tb.publish_all_now()
            broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
            job = JobDescription.from_attributes({
                "executable": "sim",
                "outputsandbox": [("big.dat", 40 << 20)],
            }, owner="alice")
            submitted = broker.submit(job, lambda r: cpu_bound_app(1.0))
            tb.env.run(until=submitted.finished)
            return submitted.report.output_retrieval_time

        campus = retrieval_time("campus", 184)
        wan = retrieval_time("wan", 185)
        assert wan > campus

    def test_jdl_roundtrip_with_output_sandbox(self):
        job = JobDescription.from_attributes({
            "executable": "x",
            "outputsandbox": ["a.log", ("b.dat", 123)],
        })
        assert job.output_sandbox == (("a.log", 1 << 20), ("b.dat", 123))
