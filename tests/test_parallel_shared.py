"""Parallel interactive jobs in shared mode (§5.2: "it is possible to have
a combination of machines with and without agents for executing a parallel
interactive application")."""

import pytest

from repro import Scenario
from repro.core import CrossBroker, SubmissionPath
from repro.jdl import JobDescription
from repro.workloads import cpu_bound_app, immediate_output_app


def parallel_shared_job(nodes, owner="alice"):
    return JobDescription.from_attributes({
        "executable": "mpi_app",
        "jobtype": ["interactive", "mpich-g2"],
        "nodenumber": nodes,
        "machineaccess": "shared",
        "performanceloss": 10,
        "streamingmode": "fast",
    }, owner=owner)


class TestParallelShared:
    def test_mix_of_existing_vm_and_new_agent(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=3, seed=160,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)

        # One agent already exists (batch job running on its batch VM).
        batch = broker.submit(
            JobDescription.from_attributes({"executable": "b"}, owner="bg"),
            lambda r: cpu_bound_app(2000.0))
        tb.env.run(until=batch.started)
        assert len(broker.agents.free_interactive()) == 1
        tb.publish_all_now()

        # A 2-rank parallel job: one rank on the existing interactive VM,
        # one on a freshly planted agent.
        job = parallel_shared_job(2)
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert report.path is SubmissionPath.INTERACTIVE_SHARED_NEW_AGENT
        assert len(broker.agents.live_agents()) == 2
        # Both ranks produced console output through one shadow.
        subjobs_seen = {line.subjob
                        for line in submitted.session.shadow.lines}
        assert subjobs_seen == {0, 1}

    def test_all_ranks_on_existing_vms(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=161,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        for i in range(2):
            batch = broker.submit(
                JobDescription.from_attributes({"executable": "b"},
                                               owner=f"bg{i}"),
                lambda r: cpu_bound_app(2000.0))
            tb.env.run(until=batch.started)
            tb.publish_all_now()
        assert len(broker.agents.free_interactive()) == 2

        job = parallel_shared_job(2)
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.success
        assert submitted.report.path is SubmissionPath.INTERACTIVE_SHARED_VM
        assert len(submitted.report.sites) == 1  # both VMs at site uab
        assert len(submitted.finished.value) == 2

    def test_insufficient_capacity_fails(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=162,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = parallel_shared_job(3)
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.process)
        assert not submitted.report.success
        assert "not enough machines" in submitted.report.error
