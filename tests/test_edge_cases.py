"""Edge cases across layers that the mainline tests do not reach."""

import pytest

from repro import Scenario
from repro.calibration import CAMPUS
from repro.core import CrossBroker
from repro.grid import SiteConfig, base_world, query_index
from repro.jdl import JobDescription
from repro.net import RelayService, TunnelEndpoint, connect_via_relay
from repro.sim import Environment
from repro.workloads import immediate_output_app


class TestEmptyGrid:
    def test_submission_to_siteless_grid_fails_cleanly(self):
        tb = base_world(seed=210)  # MDS exists, zero sites
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = JobDescription.from_attributes({
            "executable": "x",
            "jobtype": ["interactive", "sequential"]}, owner="u")
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.process)
        assert not submitted.report.success
        assert submitted.report.discovery_time > 0  # it did ask the MDS

    def test_mds_query_empty_index(self):
        tb = base_world(seed=211)

        def driver():
            adverts = yield from query_index(tb.env, tb.network, tb.rng,
                                             "broker", "mds")
            return adverts

        proc = tb.env.process(driver())
        tb.env.run(until=proc)
        assert proc.value == []


class TestRelayTeardown:
    def test_shadow_death_closes_agents(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=212,
                      publish=False).build().testbed
        RelayService(tb.env, tb.network, "broker")
        env = tb.env
        node = tb.site("uab").nodes[0]

        def scenario():
            endpoint = yield from TunnelEndpoint.register(
                tb.network, "ui", "broker", "doomed")
            vc = yield from connect_via_relay(tb.network, node.name,
                                              "broker", "doomed")
            yield from vc.send("hello", 16)
            accepted = yield from endpoint.accept()
            yield from accepted.recv()
            # The shadow side tears down its carrier entirely.
            endpoint.close()
            yield env.timeout(1.0)
            from repro.net import ConnectionClosedError

            try:
                yield from vc.send("into the void", 16)
                # Delivery may be dropped silently at the relay...
                yield from vc.recv()
            except ConnectionClosedError:
                return "agent-side closed"
            return "no close seen"

        proc = env.process(scenario())
        env.run(until=proc)
        assert proc.value == "agent-side closed"


class TestBrokerMisc:
    def test_each_submission_carries_its_own_report(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=213,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        jobs = []
        for i in range(3):
            job = JobDescription.from_attributes({
                "executable": "x",
                "jobtype": ["interactive", "sequential"],
                "streamingmode": "fast"}, owner=f"u{i}")
            jobs.append(broker.submit(job,
                                      lambda r: immediate_output_app()))
        for submitted in jobs:
            tb.env.run(until=submitted.process)
        reports = [s.report for s in jobs]
        assert [r.job_id for r in reports] == [s.job.job_id for s in jobs]
        assert len(set(r.job_id for r in reports)) == 3

    def test_shadow_port_honoured_through_broker(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=214,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = JobDescription.from_attributes({
            "executable": "x",
            "jobtype": ["interactive", "sequential"],
            "streamingmode": "fast",
            "shadowport": 31777}, owner="u")
        submitted = broker.submit(job, lambda r: immediate_output_app())
        assert submitted.session.port == 31777
        tb.env.run(until=submitted.finished)
        assert submitted.report.success

    def test_two_brokers_same_world(self):
        """Two brokers share one grid without stepping on each other."""
        tb = base_world(seed=215)
        tb.add_site(SiteConfig("shared-site", n_nodes=2), CAMPUS)
        tb.publish_all_now()
        tb.network.add_host("broker2")
        tb.network.add_link("broker2", "core", CAMPUS.latency / 2,
                            CAMPUS.bandwidth, CAMPUS.jitter)
        b1 = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        b2 = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                         broker_host="broker2")
        job1 = JobDescription.from_attributes({
            "executable": "x", "jobtype": ["interactive", "sequential"],
            "streamingmode": "fast"}, owner="a")
        job2 = JobDescription.from_attributes({
            "executable": "x", "jobtype": ["interactive", "sequential"],
            "streamingmode": "fast"}, owner="b")
        s1 = b1.submit(job1, lambda r: immediate_output_app())
        s2 = b2.submit(job2, lambda r: immediate_output_app())
        tb.env.run(until=s1.finished)
        tb.env.run(until=s2.finished)
        assert s1.report.success and s2.report.success
        assert s1.report.sites == s2.report.sites == ["shared-site"]


class TestKernelEdges:
    def test_until_event_from_other_process_failure_cleanup(self, env):
        """run(until=proc) on a failing proc propagates the failure."""

        def bad():
            yield env.timeout(1)
            raise ValueError("expected")

        proc = env.process(bad())
        with pytest.raises(ValueError, match="expected"):
            env.run(until=proc)

    def test_nested_conditions(self, env):
        def proc():
            result = yield (env.timeout(1, "a") & env.timeout(2, "b")) \
                | env.timeout(10, "slow")
            return env.now

        p = env.process(proc())
        env.run()
        assert p.value == 2.0

    def test_environment_isolation(self):
        env1, env2 = Environment(), Environment()
        env1.timeout(5)
        env2.run()  # empty, returns immediately
        assert env2.now == 0.0
        env1.run()
        assert env1.now == 5.0
