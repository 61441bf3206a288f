"""Integration tests for the CrossBroker submission paths (Figure 5)."""

import pytest

from repro import Scenario
from repro.core import BrokerConfig, CrossBroker, SubmissionPath
from repro.grid import europe_testbed
from repro.jdl import JobDescription
from repro.obs import Tracer
from repro.workloads import cpu_bound_app, immediate_output_app


def make_world(seed=1, n_nodes=4, n_sites=None, config=None):
    if n_sites:
        tb = europe_testbed(seed=seed, n_sites=n_sites,
                            nodes_per_site=n_nodes)
    else:
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=n_nodes,
                      seed=seed, publish=False).build().testbed
    tb.publish_all_now()
    broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                         config=config)
    return tb, broker


def interactive_job(owner="alice", shared=False, pl=0, nodes=1,
                    flavor="sequential", **extra):
    attrs = {
        "executable": "app",
        "jobtype": ["interactive", flavor],
        "nodenumber": nodes,
        "machineaccess": "shared" if shared else "exclusive",
        "performanceloss": pl,
        "streamingmode": "fast",
    }
    attrs.update(extra)
    return JobDescription.from_attributes(attrs, owner=owner)


def batch_job(owner="bob", **extra):
    attrs = {"executable": "batch"}
    attrs.update(extra)
    return JobDescription.from_attributes(attrs, owner=owner)


class TestExclusivePath:
    def test_successful_submission(self):
        tb, broker = make_world(seed=60)
        job = interactive_job()
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert report.path is SubmissionPath.INTERACTIVE_EXCLUSIVE
        assert report.discovery_time > 0
        assert report.selection_time > 0
        assert report.submission_time > 5
        assert report.first_output_at is not None
        assert report.sites == ["uab"]

    def test_no_idle_machine_fails(self):
        tb, broker = make_world(seed=61, n_nodes=1)
        blocker = broker.submit(batch_job(), lambda r: cpu_bound_app(1e6))
        tb.env.run(until=blocker.started)
        tb.publish_all_now()

        job = interactive_job()
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.process)
        assert not submitted.report.success
        assert "no idle machine" in submitted.report.error

    def test_parallel_exclusive_coallocation(self):
        tb, broker = make_world(seed=62, n_sites=3, n_nodes=2)
        job = interactive_job(nodes=4, flavor="mpich-g2")
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert len(report.sites) >= 2  # spread across sites
        assert len(submitted.finished.value) == 4

    def test_requirements_respected(self):
        tb, broker = make_world(seed=63, n_sites=4, n_nodes=2)
        target = list(tb.sites)[1]
        job = interactive_job(
            requirements=f'other.SiteName == "{target}"')
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.sites == [target]

    def test_unsatisfiable_requirements_fail(self):
        tb, broker = make_world(seed=64)
        job = interactive_job(requirements='other.SiteName == "nowhere"')
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.process)
        assert not submitted.report.success


class TestBatchPath:
    def test_batch_plants_agent(self):
        tb, broker = make_world(seed=65)
        submitted = broker.submit(batch_job(), lambda r: cpu_bound_app(50.0))
        tb.env.run(until=submitted.started)
        assert submitted.report.path is SubmissionPath.BATCH_WITH_AGENT
        assert len(broker.agents.live_agents()) == 1
        assert len(broker.agents.free_interactive()) == 1

    def test_batch_reuses_free_batch_vm(self):
        tb, broker = make_world(seed=66)
        first = broker.submit(batch_job(), lambda r: cpu_bound_app(5.0))
        tb.env.run(until=first.started)
        agent_id = broker.agents.live_agents()[0].runtime.agent_id

        # Interactive guest keeps the agent alive past the first batch job.
        guest = broker.submit(interactive_job(shared=True, pl=10),
                              lambda r: cpu_bound_app(400.0))
        tb.env.run(until=guest.started)
        tb.env.run(until=first.finished)

        second = broker.submit(batch_job(owner="carol"),
                               lambda r: cpu_bound_app(5.0))
        tb.env.run(until=second.started)
        assert second.report.path is SubmissionPath.BATCH_WITH_AGENT
        live = broker.agents.live_agents()
        assert len(live) == 1
        assert live[0].runtime.agent_id == agent_id  # reused, not replanted

    def test_full_grid_queues_in_broker(self):
        # One node, and a site whose LRMS accepts no queued jobs: once the
        # node is busy there is "no space in the local scheduler's queues"
        # and batch jobs wait in the CrossBroker (Figure 5, arrow 2).
        from repro.calibration import CAMPUS
        from repro.grid import SiteConfig, base_world

        tb = base_world(seed=67)
        tb.add_site(SiteConfig("uab", n_nodes=1, max_queue=0), CAMPUS)
        tb.publish_all_now()
        config = BrokerConfig(queue_poll_interval=20.0)
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                             config=config)

        first = broker.submit(batch_job(), lambda r: cpu_bound_app(60.0))
        tb.env.run(until=first.started)
        tb.publish_all_now()

        second = broker.submit(batch_job(owner="carol"),
                               lambda r: cpu_bound_app(5.0))
        tb.env.run(until=tb.env.now + 30)
        assert second.report.path is SubmissionPath.BROKER_QUEUED
        assert broker.queued_batch_count == 1
        tb.env.run(until=second.finished)
        assert second.report.success is True


class TestSharedPath:
    def _world_with_agent(self, seed, config=None):
        tb, broker = make_world(seed=seed, config=config)
        batch = broker.submit(batch_job(), lambda r: cpu_bound_app(1000.0))
        tb.env.run(until=batch.started)
        return tb, broker, batch

    def test_dispatch_to_existing_vm(self):
        tb, broker, _ = self._world_with_agent(seed=70)
        job = interactive_job(shared=True, pl=10)
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert report.path is SubmissionPath.INTERACTIVE_SHARED_VM
        assert report.discovery_time == 0.0  # local registry lookup

    def test_shared_vm_faster_than_exclusive(self):
        tb, broker, _ = self._world_with_agent(seed=71)
        shared = broker.submit(interactive_job(shared=True, pl=10),
                               lambda r: immediate_output_app())
        tb.env.run(until=shared.finished)
        exclusive = broker.submit(interactive_job(owner="dave"),
                                  lambda r: immediate_output_app())
        tb.env.run(until=exclusive.finished)
        assert shared.report.submission_time \
            < 0.5 * exclusive.report.submission_time

    def test_no_agent_plants_new_one(self):
        tb, broker = make_world(seed=72)
        job = interactive_job(shared=True, pl=10)
        submitted = broker.submit(job, lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.path \
            is SubmissionPath.INTERACTIVE_SHARED_NEW_AGENT
        assert submitted.report.success

    def test_fails_when_nothing_available(self):
        tb, broker, _ = self._world_with_agent(seed=73)
        # Fill every node with batch work (each planting an agent)...
        fillers = [broker.submit(batch_job(owner=f"u{i}"),
                                 lambda r: cpu_bound_app(500.0))
                   for i in range(3)]
        for filler in fillers:
            tb.env.run(until=filler.started)
        # ...and occupy every agent's interactive VM with long guests.
        guests = [broker.submit(interactive_job(owner=f"g{i}", shared=True,
                                                pl=10),
                                lambda r: cpu_bound_app(500.0))
                  for i in range(4)]
        for guest in guests:
            tb.env.run(until=guest.started)
        tb.publish_all_now()

        # §5.2: never pre-empts another interactive job; submission fails.
        doomed = broker.submit(interactive_job(owner="late", shared=True,
                                               pl=10),
                               lambda r: immediate_output_app())
        tb.env.run(until=doomed.process)
        assert not doomed.report.success
        assert "not enough machines" in doomed.report.error

    def test_displaced_batch_reweighted(self):
        tb, broker, batch = self._world_with_agent(seed=74)
        fs = broker.fairshare
        job = interactive_job(shared=True, pl=20)
        submitted = broker.submit(job, lambda r: cpu_bound_app(30.0))
        tb.env.run(until=submitted.started)
        # While sharing, bob's batch job is charged a_f = PL/100 = 0.2.
        share = fs.account("bob").shares[batch.job.job_id]
        assert share.af == pytest.approx(0.2)
        tb.env.run(until=submitted.finished)
        tb.env.run(until=tb.env.now + 1)
        assert share.af == pytest.approx(1.0)  # restored

    def test_interactive_priority_worsens_faster(self):
        tb, broker, batch = self._world_with_agent(seed=75)
        inter = broker.submit(interactive_job(owner="alice", shared=True,
                                              pl=10),
                              lambda r: cpu_bound_app(600.0))
        tb.env.run(until=inter.started)
        # Run several fair-share update periods.
        tb.env.run(until=tb.env.now + 400)
        fs = broker.fairshare
        # alice pays a_f = 2 - 0.1 = 1.9; bob (displaced) pays a_f = 0.1.
        assert fs.priority("alice") > fs.priority("bob") > 0.0


class TestReports:
    def test_reports_collected(self):
        tb, broker = make_world(seed=76)
        reports = []
        for _ in range(2):
            submitted = broker.submit(interactive_job(),
                                      lambda r: immediate_output_app())
            tb.env.run(until=submitted.finished)
            reports.append(submitted.report)
        assert reports[0] is not reports[1]
        assert all(r.finished_at is not None for r in reports)

    def test_finished_at_is_stamped_when_finished_fires(self):
        tb, broker = make_world(seed=79)
        submitted = broker.submit(
            interactive_job(),
            lambda r: immediate_output_app(run_for=600.0))
        # The submission returns at the job's first output ...
        tb.env.run(until=submitted.process)
        tb.env.run(until=tb.env.now + 5.0)
        assert submitted.report.first_output_at is not None
        assert not submitted.finished.triggered
        assert submitted.report.finished_at is None
        # ... and the job finishes its 600 s of CPU about 600 s later.
        tb.env.run(until=submitted.finished)
        assert submitted.report.finished_at == tb.env.now
        assert tb.env.now - submitted.report.first_output_at == \
            pytest.approx(600.0, rel=0.01)

    def test_failed_placement_stamps_finished_at(self):
        tb, broker = make_world(seed=61, n_nodes=1)
        blocker = broker.submit(batch_job(), lambda r: cpu_bound_app(1e6))
        tb.env.run(until=blocker.started)
        tb.publish_all_now()
        submitted = broker.submit(interactive_job(),
                                  lambda r: immediate_output_app())
        # The placement raises and fails `finished` at the same instant.
        tb.env.run(until=submitted.process)
        assert "no idle machine" in submitted.report.error
        assert submitted.finished.triggered and not submitted.finished.ok
        assert submitted.report.finished_at == tb.env.now

    def test_trace_records_lifecycle(self):
        tb, broker = make_world(seed=77)
        tracer = Tracer(tb.env).install()
        submitted = broker.submit(interactive_job(),
                                  lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        tb.env.run(until=tb.env.now + 1)
        kinds = {e.kind for e in tracer.job_events}
        assert "submit" in kinds
        assert "selected" in kinds
        assert "finished" in kinds

    def test_submit_and_wait_helper(self):
        tb, broker = make_world(seed=78)

        def driver():
            submitted = yield from broker.submit_and_wait(
                interactive_job(), lambda r: immediate_output_app())
            return submitted.report.success

        proc = tb.env.process(driver())
        tb.env.run(until=proc)
        assert proc.value is True


class TestStageRecord:
    """The stage record of every job a quick experiment submits, on each
    broker mode: instants in stage order, the submission column derived
    from them, and ``finished_at`` set exactly when ``finished`` fired."""

    @pytest.mark.parametrize("experiment", ["table1", "broker-modes"])
    def test_stage_record_holds_on_real_runs(self, experiment, monkeypatch):
        from repro.core.base import BrokerBase
        from repro.runner import run_experiment

        jobs = []
        submit = BrokerBase.submit

        def recording_submit(self, *args, **kwargs):
            jobs.append(submit(self, *args, **kwargs))
            return jobs[-1]

        monkeypatch.setattr(BrokerBase, "submit", recording_submit)
        run_experiment(experiment, quick=True)
        for submitted in jobs:
            r = submitted.report
            instants = [t for t in (r.submitted_at, r.dispatched_at,
                                    r.started_at, r.first_output_at)
                        if t is not None]
            assert instants == sorted(instants), r
            if r.started_at is not None:
                assert r.submission_time == r.started_at - r.dispatched_at
            assert (r.finished_at is not None) \
                == submitted.finished.triggered, r
        # The run reaches the paths that stamp every instant.
        paths = {s.report.path for s in jobs}
        if experiment == "table1":
            assert any(s.report.first_output_at is not None for s in jobs)
            assert SubmissionPath.BATCH_WITH_AGENT in paths
        else:
            assert SubmissionPath.PULLED in paths
