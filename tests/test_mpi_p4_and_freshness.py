"""MPICH-P4 single-site jobs and selection freshness (§4, §6.1)."""

import pytest

from repro import Scenario
from repro.calibration import CAMPUS
from repro.core import CrossBroker, ResourceSelector, SubmissionPath
from repro.calibration import DEFAULT_CALIBRATION
from repro.grid import SiteConfig, base_world
from repro.jdl import JobDescription
from repro.workloads import cpu_bound_app


def p4_job(nodes, owner="alice"):
    return JobDescription.from_attributes({
        "executable": "mpi_p4_app",
        "jobtype": ["interactive", "mpich-p4"],
        "nodenumber": nodes,
        "machineaccess": "exclusive",
        "streamingmode": "fast",
    }, owner=owner)


def rank_aware_factory(rank):
    """P4: only the master rank touches stdio (MPI forwards internally)."""

    def behavior(ctx):
        if ctx.stdio is not None:
            yield from ctx.stdio.write(f"master rank {rank} up", eol=True)
        yield from ctx.cpu(1.0)
        if ctx.stdio is not None:
            yield from ctx.stdio.eof()
        return rank

    return behavior


class TestMpichP4:
    def test_single_site_one_console_agent(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=3, seed=190,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        job = p4_job(3)
        assert job.console_agents == 1  # §4: one CA for P4

        submitted = broker.submit(job, rank_aware_factory)
        tb.env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert report.sites == ["uab"]  # P4 cannot span sites
        assert sorted(submitted.finished.value) == [0, 1, 2]
        assert len(submitted.session.agents) == 1
        assert {line.subjob for line in submitted.session.shadow.lines} == {0}

    def test_p4_refuses_fragmented_grid(self):
        tb = base_world(seed=191)
        tb.add_site(SiteConfig("s1", n_nodes=2), CAMPUS)
        tb.add_site(SiteConfig("s2", n_nodes=2), CAMPUS)
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        submitted = broker.submit(p4_job(4), rank_aware_factory)
        tb.env.run(until=submitted.process)
        assert not submitted.report.success
        assert "CoAllocationError" in submitted.report.error


class TestSelectionFreshness:
    @staticmethod
    def _freeze_adverts(tb):
        """Stop the periodic MDS pushers so the index stays stale."""
        for publisher in tb.publishers:
            proc = publisher._proc
            proc.interrupt("frozen for test")
            # The publisher does not catch interrupts; defuse the failure
            # so the kill does not crash the simulation loop.
            proc.callbacks.append(lambda event: event.defuse())

    def test_refresh_overrides_stale_mds_advert(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=192,
                      publish=False).build().testbed
        tb.publish_all_now()  # advert says FreeCPUs=2
        self._freeze_adverts(tb)
        env = tb.env
        site = tb.site("uab")
        # Occupy both nodes AFTER the advert was published.
        site.nodes[0].acquire("x")
        site.nodes[1].acquire("y")

        selector = ResourceSelector(env, tb.network, tb.rng,
                                    DEFAULT_CALIBRATION.middleware, "broker")
        job = JobDescription.from_attributes({"executable": "x"})

        def driver():
            adverts, _ = yield from selector.discover()
            assert adverts[0].attributes["FreeCPUs"] == 2  # stale
            outcome = yield from selector.select(job, adverts)
            return outcome.candidates[0]

        proc = env.process(driver())
        env.run(until=proc)
        # §6.1: the refresh fetched the authoritative queue state.
        assert proc.value.free_cpus == 0

    def test_rank_recomputed_with_fresh_attributes(self):
        tb = base_world(seed=193)
        tb.add_site(SiteConfig("full", n_nodes=4), CAMPUS)
        tb.add_site(SiteConfig("empty", n_nodes=4), CAMPUS)
        tb.publish_all_now()  # both advertise FreeCPUs=4
        self._freeze_adverts(tb)
        env = tb.env
        # "full" silently loses all its CPUs after publishing.
        for node in tb.site("full").nodes:
            node.acquire("hog")

        selector = ResourceSelector(env, tb.network, tb.rng,
                                    DEFAULT_CALIBRATION.middleware, "broker")
        job = JobDescription.from_attributes(
            {"executable": "x", "rank": "other.FreeCPUs"})

        def driver():
            adverts, _ = yield from selector.discover()
            outcome = yield from selector.select(job, adverts)
            return [c.site for c in outcome.candidates]

        proc = env.process(driver())
        env.run(until=proc)
        # With stale ranks the order would be a coin flip; fresh ranks put
        # the genuinely empty site first.
        assert proc.value[0] == "empty"
