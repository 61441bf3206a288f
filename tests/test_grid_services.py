"""Integration-level tests for GRAM, MDS, staging, MPI planning, testbeds."""

import pytest

from repro import Scenario
from repro.calibration import DEFAULT_CALIBRATION
from repro.grid import (
    CoAllocationError,
    GramClient,
    JobState,
    SiteConfig,
    europe_testbed,
    plan_allocation,
    query_index,
    stage_input,
    subjobs_for,
)
from repro.jdl import JobDescription


def cpu_behavior(duration):
    def behavior(ctx):
        yield from ctx.cpu(duration)
        return "done"
    return behavior


class TestGram:
    def test_submit_and_run(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=1,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")

        def driver():
            gram = GramClient(env, tb.network, tb.rng, "broker",
                              site.gatekeeper_host,
                              DEFAULT_CALIBRATION.middleware)
            yield from gram.connect()
            ticket = yield from gram.submit("j", "alice", cpu_behavior(1.0))
            result = yield ticket.handle.finished
            return (ticket, result, env.now)

        proc = env.process(driver())
        env.run(until=proc)
        ticket, result, when = proc.value
        assert result == "done"
        assert when > 10  # GSI + GRAM + queue dispatch all charged

    def test_two_phase_commit_costs_more(self):
        def run(two_phase):
            tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=2,
                          publish=False).build().testbed
            env = tb.env
            site = tb.site("uab")

            def driver():
                gram = GramClient(env, tb.network, tb.rng, "broker",
                                  site.gatekeeper_host,
                                  DEFAULT_CALIBRATION.middleware)
                yield from gram.connect()
                t0 = env.now
                yield from gram.submit("j", "a", cpu_behavior(0.1),
                                       two_phase=two_phase)
                return env.now - t0

            proc = env.process(driver())
            env.run(until=proc)
            return proc.value

        assert run(True) > run(False)

    def test_status_and_cancel(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=3,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")

        def driver():
            gram = GramClient(env, tb.network, tb.rng, "broker",
                              site.gatekeeper_host,
                              DEFAULT_CALIBRATION.middleware)
            yield from gram.connect()
            t1 = yield from gram.submit("long", "a", cpu_behavior(500.0))
            yield t1.handle.started
            t2 = yield from gram.submit("queued", "a", cpu_behavior(1.0))
            s1 = yield from gram.status(t1.gram_id)
            s2 = yield from gram.status(t2.gram_id)
            cancelled = yield from gram.cancel(t2.gram_id)
            s2_after = yield from gram.status(t2.gram_id)
            return (s1, s2, cancelled, s2_after)

        proc = env.process(driver())
        env.run(until=proc)
        s1, s2, cancelled, s2_after = proc.value
        assert s1 == "running"
        assert s2 == "queued"
        assert cancelled is True
        assert s2_after == "cancelled"


class TestMds:
    def test_publish_and_query_with_staleness(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=4,
                      publish=False).build().testbed
        env = tb.env

        def driver():
            yield env.timeout(40)  # at least one publish cycle
            adverts = yield from query_index(env, tb.network, tb.rng,
                                             "broker", "mds")
            return adverts

        proc = env.process(driver())
        env.run(until=proc)
        adverts = proc.value
        assert len(adverts) == 1
        advert = adverts[0]
        assert advert.site == "uab"
        assert advert.attributes["TotalCPUs"] == 2
        assert advert.age(env.now) >= 0.0

    def test_adverts_reflect_occupancy_after_republish(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=5,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        site.nodes[0].acquire("occupier")
        tb.publish_all_now()

        def driver():
            adverts = yield from query_index(env, tb.network, tb.rng,
                                             "broker", "mds")
            return adverts[0].attributes["FreeCPUs"]

        proc = env.process(driver())
        env.run(until=proc)
        assert proc.value == 1

    def test_publisher_survives_index_outage(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=6,
                      publish=False).build().testbed
        env = tb.env
        tb.network.inject_outage("core", "mds", 0.0, 60.0)

        def driver():
            yield env.timeout(120)  # outage + another publish period
            adverts = yield from query_index(env, tb.network, tb.rng,
                                             "broker", "mds")
            return adverts

        proc = env.process(driver())
        env.run(until=proc)
        assert len(proc.value) == 1  # re-registered after recovery


class TestStaging:
    def test_staging_time_scales_with_bytes(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=7,
                      publish=False).build().testbed
        env = tb.env
        gk = tb.site("uab").gatekeeper_host

        def stage(files):
            def driver():
                elapsed = yield from stage_input(env, tb.network, tb.rng,
                                                 "broker", gk, files)
                return elapsed
            proc = env.process(driver())
            env.run(until=proc)
            return proc.value

        small = stage([("a", 1000)])
        big = stage([("a", 50_000_000)])
        assert big > small


class TestMpiPlanning:
    def job(self, flavor, nodes):
        return JobDescription.from_attributes(
            {"executable": "x", "jobtype": ["interactive", flavor],
             "nodenumber": nodes})

    def test_p4_needs_single_site(self):
        job = self.job("mpich-p4", 4)
        plan = plan_allocation(job, [("s1", 2), ("s2", 4)])
        assert len(plan) == 1 and plan[0].site == "s2"

    def test_p4_fails_when_fragmented(self):
        job = self.job("mpich-p4", 4)
        with pytest.raises(CoAllocationError):
            plan_allocation(job, [("s1", 2), ("s2", 3)])

    def test_g2_spreads_across_sites(self):
        job = self.job("mpich-g2", 5)
        plan = plan_allocation(job, [("s1", 2), ("s2", 2), ("s3", 4)])
        assert [(p.site, p.nodes) for p in plan] == [
            ("s1", 2), ("s2", 2), ("s3", 1)]

    def test_g2_insufficient_total(self):
        job = self.job("mpich-g2", 10)
        with pytest.raises(CoAllocationError):
            plan_allocation(job, [("s1", 2), ("s2", 2)])

    def test_g2_skips_full_sites(self):
        job = self.job("mpich-g2", 2)
        plan = plan_allocation(job, [("s1", 0), ("s2", 2)])
        assert plan[0].site == "s2"

    def test_sequential_first_fit(self):
        job = JobDescription.from_attributes({"executable": "x"})
        plan = plan_allocation(job, [("s1", 0), ("s2", 1)])
        assert plan[0].site == "s2"

    def test_subjob_ranks_in_slice_order(self):
        job = self.job("mpich-g2", 3)
        plan = plan_allocation(job, [("s1", 2), ("s2", 1)])
        subjobs = subjobs_for(job, plan)
        assert [(s.rank, s.site) for s in subjobs] == [
            (0, "s1"), (1, "s1"), (2, "s2")]

    def test_subjobs_check_total(self):
        job = self.job("mpich-g2", 3)
        from repro.grid import AllocationSlice

        with pytest.raises(CoAllocationError):
            subjobs_for(job, [AllocationSlice("s1", 2)])


class TestTestbeds:
    def test_campus_grid_wiring(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=3, seed=8,
                      publish=False).build().testbed
        assert tb.total_free_cpus() == 3
        assert tb.network.path_up("ui", "gk.uab")
        assert tb.network.path_up("broker", "mds")

    def test_wan_grid_has_higher_latency(self):
        campus = Scenario(sites=1, scenario="campus", seed=9,
                          publish=False).build().testbed
        wan = Scenario(sites=1, scenario="wan", seed=9,
                       publish=False).build().testbed
        t_campus = campus.network.base_transfer_time("ui", "gk.uab", 100)
        t_wan = wan.network.base_transfer_time("ui", "gk.ifca", 100)
        assert t_wan > 3 * t_campus

    def test_europe_testbed_site_count(self):
        tb = europe_testbed(seed=10, n_sites=7, nodes_per_site=2)
        assert len(tb.sites) == 7
        assert tb.total_free_cpus() == 14

    def test_publish_all_now_seeds_index(self):
        tb = europe_testbed(seed=11, n_sites=3)
        tb.publish_all_now()
        assert tb.index is not None
        assert tb.index.site_count == 3

    def test_advert_contents(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=12,
                      publish=False).build().testbed
        advert = tb.site("uab").advert()
        assert advert["SiteName"] == "uab"
        assert advert["TotalCPUs"] == 2
        assert advert["FreeCPUs"] == 2
        assert advert["OpSys"] == "Linux"

    def test_duplicate_site_names_rejected(self):
        tb = Scenario(sites=1, scenario="campus", seed=13,
                      publish=False).build().testbed
        from repro.calibration import CAMPUS

        with pytest.raises(ValueError):
            tb.add_site(SiteConfig("uab"), CAMPUS)
