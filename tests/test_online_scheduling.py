"""On-line scheduling (§3): "The scheduler attempts to run each
interactive job immediately.  If the job enters a queue rather than
immediately starting execution, it will be resubmitted to any other
resource available."
"""

import pytest

from repro.calibration import CAMPUS
from repro.core import BrokerConfig, CrossBroker, SubmissionPath
from repro.grid import SiteConfig, base_world
from repro.jdl import JobDescription
from repro.obs import Tracer
from repro.workloads import cpu_bound_app, immediate_output_app


def interactive_exclusive(owner="alice"):
    return JobDescription.from_attributes({
        "executable": "app",
        "jobtype": ["interactive", "sequential"],
        "machineaccess": "exclusive",
        "streamingmode": "fast",
    }, owner=owner)


class TestOnlineScheduling:
    def _two_site_world(self, seed):
        tb = base_world(seed=seed)
        tb.add_site(SiteConfig("slow", n_nodes=1), CAMPUS)
        tb.add_site(SiteConfig("spare", n_nodes=1), CAMPUS)
        tb.publish_all_now()
        config = BrokerConfig(queued_resubmit_timeout=15.0)
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                             config=config)
        return tb, broker

    def test_resubmission_after_remote_queueing(self):
        tb, broker = self._two_site_world(seed=150)
        env = tb.env
        tracer = Tracer(env).install()
        slow = tb.site("slow")

        job = interactive_exclusive()
        # Pin the first attempt to "slow" via Rank so the race is forced.
        job.rank = __import__("repro.jdl", fromlist=["parse_expression"]) \
            .parse_expression('other.SiteName == "slow"')
        submitted = broker.submit(job, lambda r: immediate_output_app())

        # Snipe the node *after* the broker's refresh saw it free but
        # *before* the GRAM submission reaches the LRMS — the classic
        # stale-selection race on-line scheduling exists for.
        def sniper():
            yield env.timeout(2.5)
            slow.lrms.submit("sniper", "rival", cpu_bound_app(500.0))

        env.process(sniper())
        env.run(until=submitted.finished)
        report = submitted.report
        assert report.success
        assert report.resubmissions >= 1
        assert report.sites == ["spare"]
        assert any(e.kind == "resubmit" for e in tracer.job_events)

    def test_no_resubmission_when_it_starts_promptly(self):
        tb, broker = self._two_site_world(seed=151)
        submitted = broker.submit(interactive_exclusive(),
                                  lambda r: immediate_output_app())
        tb.env.run(until=submitted.finished)
        assert submitted.report.success
        assert submitted.report.resubmissions == 0

    def test_gives_up_after_budget(self):
        tb = base_world(seed=152)
        tb.add_site(SiteConfig("only", n_nodes=1), CAMPUS)
        tb.publish_all_now()
        config = BrokerConfig(queued_resubmit_timeout=10.0,
                              max_resubmissions=1)
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration,
                             config=config)
        env = tb.env
        only = tb.site("only")

        job = interactive_exclusive()
        submitted = broker.submit(job, lambda r: immediate_output_app())

        def sniper():
            yield env.timeout(0.2)
            only.lrms.submit("sniper", "rival", cpu_bound_app(500.0))

        env.process(sniper())
        env.run(until=submitted.process)
        assert not submitted.report.success
