"""Failure injection: agent death and the broker's recovery (§5.2)."""

import pytest

from repro import Scenario
from repro.core import BrokerConfig, CrossBroker, SubmissionPath
from repro.grid.errors import AgentDeadError
from repro.jdl import JobDescription
from repro.obs import Tracer
from repro.sim import Interrupt
from repro.workloads import cpu_bound_app


def make_world(seed, n_nodes=2):
    tb = Scenario(sites=1, scenario="campus", nodes_per_site=n_nodes,
                  seed=seed, publish=False).build().testbed
    tb.publish_all_now()
    broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
    return tb, broker


def batch_job(owner="bob"):
    return JobDescription.from_attributes({"executable": "sim"}, owner=owner)


def run_with_repeat_evictions(seed):
    """A 60 s batch job on a 1-site campus world with one resubmission
    allowed, whose agents are killed every 10 s (three kills in all);
    runs until the job record resolves or 400 s pass."""
    config = BrokerConfig(max_resubmissions=1)
    tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=seed,
                  publish=False).build().testbed
    tb.publish_all_now()
    broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                         config=config)
    submitted = broker.submit(batch_job(), lambda r: cpu_bound_app(60.0))
    tb.env.run(until=submitted.started)

    # Kill every agent that ever appears.
    def reaper():
        killed = 0
        while killed < 3:
            live = broker.agents.live_agents()
            for record in live:
                if not record.runtime.batch_free:
                    record.runtime.kill("repeat eviction")
                    killed += 1
            yield tb.env.timeout(10.0)

    tb.env.process(reaper())
    tb.env.run(until=submitted.process)
    # Wait until the job record resolves one way or the other.
    deadline = tb.env.now + 400
    while not submitted.finished.triggered and tb.env.now < deadline:
        tb.env.run(until=tb.env.now + 10)
    return submitted


class TestAgentDeath:
    def test_guest_jobs_killed_with_agent(self):
        tb, broker = make_world(seed=120)
        submitted = broker.submit(batch_job(), lambda r: cpu_bound_app(500.0))
        tb.env.run(until=submitted.started)
        record = broker.agents.live_agents()[0]

        caught = {}

        def guest(ctx):
            try:
                yield from ctx.cpu(1000.0)
            except Interrupt as interrupt:
                caught["cause"] = interrupt.cause
                raise

        def driver():
            ticket = yield from record.runtime.run_job("victim", guest,
                                                       True, 10)
            yield ticket.started
            record.runtime.kill("node power loss")
            try:
                yield ticket.finished
            except Interrupt:
                return "guest killed"

        proc = tb.env.process(driver())
        tb.env.run(until=proc)
        assert proc.value == "guest killed"
        assert isinstance(caught["cause"], AgentDeadError)

    def test_batch_job_resubmitted_after_agent_death(self):
        tb, broker = make_world(seed=121, n_nodes=2)
        tracer = Tracer(tb.env).install()
        submitted = broker.submit(batch_job(), lambda r: cpu_bound_app(30.0))
        tb.env.run(until=submitted.started)
        first_agent = broker.agents.live_agents()[0].runtime

        # The site's LRMS evicts the glide-in mid-job.
        def killer():
            yield tb.env.timeout(5.0)
            first_agent.kill("lrms eviction")

        tb.env.process(killer())
        tb.env.run(until=submitted.finished)
        assert submitted.report.success
        assert submitted.report.resubmissions == 1
        assert submitted.finished.value == [30.0]
        kinds = {e.kind for e in tracer.job_events}
        assert "agent-died-resubmit" in kinds
        # A fresh agent carried the restarted job.
        deaths = broker.agents.deaths
        assert first_agent.agent_id in deaths

    def test_resubmission_budget_exhausted(self):
        submitted = run_with_repeat_evictions(seed=122)
        assert submitted.finished.triggered
        assert not submitted.report.success or \
            submitted.report.resubmissions <= 1

    def test_failed_job_never_reads_success(self):
        """A job whose ``finished`` failed records why: the agent-death
        arm with the budget spent and the subjob watcher both fail
        ``finished``, and ``report.success`` must read False for it
        (the broker-modes and chaos-drill tallies count it)."""
        failed = 0
        for seed in range(120, 140):
            submitted = run_with_repeat_evictions(seed)
            assert submitted.finished.triggered, seed
            if submitted.finished.ok:
                assert submitted.report.success, seed
                continue
            failed += 1
            exc = submitted.finished.value
            assert not submitted.report.success, seed
            assert submitted.report.error == \
                f"{type(exc).__name__}: {exc}", seed
        assert failed

    def test_fairshare_not_leaked_on_death(self):
        tb, broker = make_world(seed=123)
        submitted = broker.submit(batch_job(owner="leaky"),
                                  lambda r: cpu_bound_app(50.0))
        tb.env.run(until=submitted.started)
        agent = broker.agents.live_agents()[0].runtime
        agent.kill("eviction")
        tb.env.run(until=submitted.finished)
        tb.env.run(until=tb.env.now + 5)
        # Exactly zero or one share outstanding (the restarted run), never
        # the dead run's share on top.
        shares = broker.fairshare.account("leaky").shares
        assert len(shares) <= 1
