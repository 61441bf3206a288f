"""On-line output control (§1): "the ability to control application output
online and to enable the user to decide whether to cancel this in
accordance with the output results."
"""

import pytest

from repro import Scenario
from repro.core import CrossBroker
from repro.jdl import JobDescription
from repro.sim import Interrupt
from repro.workloads import progress_app


def interactive_job(shared=False, owner="alice"):
    return JobDescription.from_attributes({
        "executable": "sim",
        "jobtype": ["interactive", "sequential"],
        "machineaccess": "shared" if shared else "exclusive",
        "performanceloss": 10 if shared else 0,
        "streamingmode": "fast",
    }, owner=owner)


def divergent_simulation(steps=100, step_cpu=1.0):
    """A long simulation whose output the user will dislike.

    Deliberately does NOT handle the kill — the Console Agent's kill is a
    SIGKILL, which no userspace handler sees.
    """

    def behavior(ctx):
        for i in range(steps):
            yield from ctx.cpu(step_cpu)
            yield from ctx.stdio.write(f"residual={2.0**i:.1e}",
                                       nbytes=24, eol=True)
        return ("completed", steps)

    return behavior


class TestUserCancellation:
    def _run_and_cancel(self, shared, seed):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=seed,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        env = tb.env

        if shared:
            # Seed an agent via a batch job first.
            from repro.workloads import cpu_bound_app

            seeded = broker.submit(
                JobDescription.from_attributes({"executable": "b"},
                                               owner="bg"),
                lambda r: cpu_bound_app(2000.0))
            env.run(until=seeded.started)
            tb.publish_all_now()

        submitted = broker.submit(interactive_job(shared=shared),
                                  lambda r: divergent_simulation())

        def user():
            # Watch three output lines, decide the run is diverging, kill.
            for _ in range(3):
                yield submitted.session.shadow.console.get()
            yield from broker.cancel(submitted, "simulation diverged")
            try:
                yield submitted.finished
                return ("finished-ok", submitted.finished.value)
            except Exception as exc:  # noqa: BLE001
                return ("finished-failed", str(exc))

        proc = env.process(user())
        env.run(until=proc)
        return tb, broker, submitted, proc.value

    def test_cancel_exclusive_job(self):
        tb, broker, submitted, outcome = self._run_and_cancel(
            shared=False, seed=170)
        kind, detail = outcome
        assert kind == "finished-failed"
        assert "killed by console" in detail
        assert submitted.report.error.startswith("Cancelled")
        # The job stopped long before its 100 steps.
        assert len(submitted.session.shadow.lines) < 20
        # The node is free again for the next job.
        tb.env.run(until=tb.env.now + 10)
        assert tb.site("uab").lrms.free_count == 2

    def test_cancel_shared_job_frees_the_vm(self):
        tb, broker, submitted, outcome = self._run_and_cancel(
            shared=True, seed=171)
        assert outcome[0] == "finished-failed"
        tb.env.run(until=tb.env.now + 10)
        # The interactive VM is free again; the batch job is untouched.
        assert len(broker.agents.free_interactive()) == 1
        live = broker.agents.live_agents()
        assert len(live) == 1 and not live[0].runtime.batch_free

    def test_cancel_after_finish_is_noop(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=172,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        from repro.workloads import immediate_output_app

        submitted = broker.submit(interactive_job(),
                                  lambda r: immediate_output_app(run_for=0.5))
        tb.env.run(until=submitted.finished)

        def late_cancel():
            result = yield from broker.cancel(submitted)
            return result

        proc = tb.env.process(late_cancel())
        tb.env.run(until=proc)
        assert proc.value is False
        assert submitted.report.success  # untouched
