"""Tests for the control bridge (repro.obs.control), the steering verbs,
and the chaos-schedule replay."""

from __future__ import annotations

import json

import pytest

from repro.jdl import JobDescription
from repro.obs import (
    ChaosSchedule,
    SimController,
    SteerError,
    control_scope,
)
from repro.scenario import Scenario
from repro.sim import Environment
from repro.workloads import cpu_bound_app


def _submit_batch(handle, count, runtime=5.0, gap=2.0):
    """A tiny paced driver; returns (process, submissions list)."""
    env = handle.env
    submitted = []

    def driver():
        pace = env.timer(name="test/pace")
        for i in range(count):
            job = JobDescription.from_attributes({
                "executable": "t-app",
                "jobtype": ["interactive", "sequential"],
                "estimatedruntime": runtime,
            }, owner=f"user{i % 2}").clone(job_id=f"tc-{i:03d}")
            submitted.append(handle.submit(
                job, lambda rank: cpu_bound_app(runtime),
                attach_console=False))
            if i < count - 1:
                yield pace.arm(gap)
        for s in submitted:
            try:
                yield s.finished
            except Exception:  # noqa: BLE001 - outcome read off the report
                pass
        yield from handle.broker.drain()

    return env.process(driver(), name="test/driver"), submitted


# ---------------------------------------------------------------------------
# ChaosSchedule
# ---------------------------------------------------------------------------
class TestChaosSchedule:
    def test_round_trip_and_stable_sort(self):
        doc = {"version": 1, "actions": [
            {"at": 30.0, "verb": "drain_site", "site": "b"},
            {"at": 10.0, "verb": "inject", "count": 2},
            {"at": 10.0, "verb": "drain_site", "site": "a"},
        ]}
        sched = ChaosSchedule.from_dict(doc)
        assert len(sched) == 3
        out = sched.to_dict()
        # Sorted by (at, original index): both t=10 actions keep order.
        assert [a["at"] for a in out["actions"]] == [10.0, 10.0, 30.0]
        assert out["actions"][0]["verb"] == "inject"
        assert out["actions"][1]["site"] == "a"

    def test_rejects_unknown_verb_and_bad_version(self):
        with pytest.raises(SteerError):
            ChaosSchedule.from_dict({"version": 1, "actions": [
                {"at": 1.0, "verb": "explode"}]})
        with pytest.raises(SteerError):
            ChaosSchedule.from_dict({"version": 2, "actions": []})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps({"version": 1, "actions": [
            {"at": 5.0, "verb": "drain_site", "site": "site00"}]}),
            encoding="utf-8")
        sched = ChaosSchedule.load(str(path))
        assert len(sched) == 1
        assert sched.to_dict()["actions"][0] == {
            "at": 5.0, "verb": "drain_site", "site": "site00"}

    @pytest.mark.parametrize("verb", ["pause", "resume", "step", "set_rate"])
    def test_clock_verbs_are_rejected_at_load_time(self, verb):
        # There is no clock to steer: the schedule refuses the verb when
        # it is loaded and names the six world verbs.
        with pytest.raises(SteerError) as excinfo:
            ChaosSchedule.from_dict({"version": 1, "actions": [
                {"at": 5.0, "verb": verb}]})
        message = str(excinfo.value)
        assert repr(verb) in message
        assert ("inject, kill, drain_site, undrain_site, fail_site, "
                "recover_site") in message


# ---------------------------------------------------------------------------
# The controller bridge (no world)
# ---------------------------------------------------------------------------
class TestSimController:
    def test_world_verbs_without_world_raise(self, env):
        controller = SimController(env).install()
        with pytest.raises(SteerError):
            controller.apply("drain_site", {"site": "x"})

    def test_unknown_verb_and_bad_args_raise(self, env):
        controller = SimController(env).install()
        with pytest.raises(SteerError):
            controller.apply("frobnicate")

    def test_failed_verbs_never_enter_the_fired_log(self, env):
        controller = SimController(env).install()
        with pytest.raises(SteerError):
            controller.apply("drain_site", {"site": "x"})
        assert controller.fired == []

    def test_idle_controller_changes_nothing(self):
        def workload(environment):
            ticks = []

            def proc():
                for _ in range(5):
                    yield environment.timeout(1.5)
                    ticks.append(environment.now)

            p = environment.process(proc(), name="w")
            environment.run(until=p)
            return ticks

        bare = workload(Environment())
        with control_scope() as controllers:
            controlled_env = Environment()
            controlled = workload(controlled_env)
            assert controllers and controllers[0].env is controlled_env
        assert controlled == bare

    def test_control_scope_restores_previous_factory(self):
        before = Environment.control_factory
        with control_scope():
            assert Environment.control_factory is not before
        assert Environment.control_factory is before


# ---------------------------------------------------------------------------
# Steering verbs against a real world
# ---------------------------------------------------------------------------
class TestSteeringWorld:
    def test_drain_and_partition_verbs_flip_world_state(self):
        sched = ChaosSchedule.from_dict({"version": 1, "actions": [
            {"at": 2.0, "verb": "drain_site", "site": "site00"},
            {"at": 4.0, "verb": "fail_site", "site": "site01"},
            {"at": 6.0, "verb": "undrain_site", "site": "site00"},
            {"at": 8.0, "verb": "recover_site", "site": "site01"},
        ]})
        with control_scope(schedule=sched) as controllers:
            handle = Scenario(sites=3, scenario="europe", seed=7,
                              trace=True).build()
            env = handle.env
            observed = {}

            def probe():
                site0 = handle.testbed.sites["site00"]
                site1 = handle.testbed.sites["site01"]
                yield env.timeout(3.0)
                observed["drained"] = site0.lrms.drained
                observed["advert_free"] = site0.advert()["FreeCPUs"]
                observed["advert_flag"] = site0.advert().get("Drained")
                yield env.timeout(2.0)  # t=5: site01 partitioned
                observed["down"] = not handle.network.path_up(
                    "broker", site1.gatekeeper_host)
                yield env.timeout(2.0)  # t=7: site00 undrained
                observed["redrained"] = site0.lrms.drained
                yield env.timeout(2.0)  # t=9: site01 recovered
                observed["up_again"] = handle.network.path_up(
                    "broker", site1.gatekeeper_host)

            proc = env.process(probe(), name="probe")
            env.run(until=proc)
            controller = controllers[0]

        assert observed == {"drained": True, "advert_free": 0,
                            "advert_flag": True, "down": True,
                            "redrained": False, "up_again": True}
        assert [f["verb"] for f in controller.fired] == [
            "drain_site", "fail_site", "undrain_site", "recover_site"]
        assert [f["at"] for f in controller.fired] == [2.0, 4.0, 6.0, 8.0]
        # Satellite: every steering action is a tracer ring event.
        kinds = [e.kind for e in handle.tracer.events
                 if e.kind.startswith("steer:")]
        assert kinds == ["steer:drain_site", "steer:fail_site",
                         "steer:undrain_site", "steer:recover_site"]

    def test_inject_submits_pinned_chaos_jobs(self):
        sched = ChaosSchedule.from_dict({"version": 1, "actions": [
            {"at": 1.0, "verb": "inject", "count": 2, "runtime": 3.0}]})
        with control_scope(schedule=sched) as controllers:
            handle = Scenario(sites=2, scenario="europe", seed=3).build()
            proc, _ = _submit_batch(handle, 2, runtime=3.0, gap=1.0)
            handle.env.run(until=proc)
            world = controllers[0].world
        chaos_ids = [j for j in world.jobs if j.startswith("chaos-")]
        assert chaos_ids == ["chaos-000", "chaos-001"]
        assert controllers[0].fired[0]["verb"] == "inject"

    def test_chaos_replay_is_deterministic(self):
        def once():
            sched = ChaosSchedule.from_dict({"version": 1, "actions": [
                {"at": 3.0, "verb": "drain_site", "site": "site00"},
                {"at": 9.0, "verb": "undrain_site", "site": "site00"},
            ]})
            with control_scope(schedule=sched) as controllers:
                handle = Scenario(sites=2, scenario="europe", seed=11).build()
                proc, subs = _submit_batch(handle, 3)
                handle.env.run(until=proc)
                world = controllers[0].world
                return (handle.env.now, controllers[0].fired,
                        world.site_rows(), world.job_rows())

        assert once() == once()
