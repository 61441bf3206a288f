"""Tests for the broker status/monitoring API."""

import pytest

from repro import Scenario
from repro.core import CrossBroker, snapshot
from repro.jdl import JobDescription
from repro.workloads import cpu_bound_app, immediate_output_app


def make_world(seed=220, n_nodes=2):
    tb = Scenario(sites=1, scenario="campus", nodes_per_site=n_nodes,
                  seed=seed, publish=False).build().testbed
    tb.publish_all_now()
    broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
    return tb, broker


class TestSnapshot:
    def test_stages_tracked(self):
        tb, broker = make_world()
        batch = broker.submit(
            JobDescription.from_attributes({"executable": "b"}, owner="bob"),
            lambda r: cpu_bound_app(500.0))
        quick = broker.submit(
            JobDescription.from_attributes({
                "executable": "i",
                "jobtype": ["interactive", "sequential"],
                "streamingmode": "fast"}, owner="alice"),
            lambda r: immediate_output_app(run_for=0.5))
        tb.env.run(until=quick.finished)
        tb.env.run(until=batch.started)

        snap = snapshot(broker, [batch, quick])
        stages = {job.job_id: job.stage for job in snap.jobs}
        assert stages[batch.job.job_id] == "running"
        assert stages[quick.job.job_id] == "done"
        assert snap.running == 1
        assert snap.count("done") == 1

    def test_agents_and_vm_occupancy(self):
        tb, broker = make_world(seed=221)
        batch = broker.submit(
            JobDescription.from_attributes({"executable": "b"}, owner="bob"),
            lambda r: cpu_bound_app(500.0))
        tb.env.run(until=batch.started)
        snap = snapshot(broker, [batch])
        assert len(snap.agents) == 1
        agent = snap.agents[0]
        assert not agent.batch_free
        assert agent.interactive_free
        assert snap.free_interactive_vms == 1

    def test_failed_and_rejected_stages(self):
        tb, broker = make_world(seed=222, n_nodes=1)
        blocker = broker.submit(
            JobDescription.from_attributes({"executable": "b"}, owner="bg"),
            lambda r: cpu_bound_app(1e6))
        tb.env.run(until=blocker.started)
        tb.publish_all_now()
        doomed = broker.submit(
            JobDescription.from_attributes({
                "executable": "i",
                "jobtype": ["interactive", "sequential"],
                "streamingmode": "fast"}, owner="late"),
            lambda r: immediate_output_app())
        tb.env.run(until=doomed.process)
        snap = snapshot(broker, [doomed])
        assert snap.jobs[0].stage == "failed"

    def test_render_contains_all_sections(self):
        tb, broker = make_world(seed=223)
        job = broker.submit(
            JobDescription.from_attributes({"executable": "b"}, owner="bob"),
            lambda r: cpu_bound_app(100.0))
        tb.env.run(until=job.started)
        text = snapshot(broker, [job]).render()
        assert "CrossBroker status" in text
        assert "Jobs (1)" in text
        assert "Glide-in agents (1)" in text
        assert "Fair-share standings" in text

    def test_priorities_in_snapshot(self):
        tb, broker = make_world(seed=224)
        broker.fairshare.job_started("hog", "j", cpus=2, af=2.0)
        for _ in range(10):
            broker.fairshare.step()
        snap = snapshot(broker, [])
        assert snap.priorities["hog"] > 0

    def test_empty_snapshot_renders(self):
        tb, broker = make_world(seed=225)
        text = snapshot(broker, []).render()
        assert "Jobs (0)" in text
