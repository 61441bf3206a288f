"""Tests for chaos schedules (repro.obs.control), the steering verbs,
and the replay of a schedule as queue entries."""

from __future__ import annotations

import json

import pytest

from repro.jdl import JobDescription
from repro.obs import (
    ChaosSchedule,
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
# The scope: which worlds are steered, and what a bad action does
# ---------------------------------------------------------------------------
def _schedule(*actions):
    return ChaosSchedule.from_dict({"version": 1, "actions": list(actions)})


def _paced_world(seed=5):
    """A small europe world run to the end of a paced batch; returns
    (end time, eids scheduled, job rows)."""
    handle = Scenario(sites=2, scenario="europe", seed=seed).build()
    proc, submitted = _submit_batch(handle, 3)
    handle.env.run(until=proc)
    return (handle.env.now, handle.env._eid,
            [(s.job.job_id, s.report.success, s.report.sites)
             for s in submitted])


class TestControlScope:
    @pytest.mark.parametrize("action, reason", [
        ({"at": 1.0, "verb": "drain_site", "site": "nowhere"},
         "unknown site 'nowhere'"),
        ({"at": 2.5, "verb": "inject", "count": 0}, "count >= 1"),
        ({"at": 1.0, "verb": "kill"}, "argument"),
    ], ids=["unknown-site", "bad-count", "missing-argument"])
    def test_an_action_that_cannot_apply_names_itself(self, action,
                                                      reason):
        with control_scope(schedule=_schedule(action)) as worlds:
            handle = Scenario(sites=2, scenario="europe", seed=1).build()
            with pytest.raises(SteerError) as excinfo:
                handle.env.run(until=5.0)
        message = str(excinfo.value)
        assert message.startswith(
            f"chaos action {action['verb']} at t={action['at']:g}: ")
        assert reason in message
        # A failed verb leaves no record.
        assert worlds[0].fired == []

    def test_an_empty_scope_changes_nothing(self):
        bare = _paced_world()
        with control_scope() as worlds:
            steered = _paced_world()
        assert steered == bare
        assert len(worlds) == 1 and worlds[0].fired == []

    def test_each_action_is_one_queue_entry(self):
        # The only cost of a schedule before it fires: one eid per action.
        actions = [{"at": 400.0, "verb": "drain_site", "site": "site00"},
                   {"at": 500.0, "verb": "undrain_site", "site": "site00"}]
        bare = _paced_world()
        with control_scope(schedule=_schedule(*actions)) as worlds:
            steered = _paced_world()
        assert steered[0] < 400.0 and worlds[0].fired == []
        assert steered[1] == bare[1] + len(actions)
        assert steered[2] == bare[2]

    def test_worlds_not_built_by_scenario_are_not_steered(self):
        sched = _schedule({"at": 1.0, "verb": "drain_site", "site": "x"})
        with control_scope(schedule=sched) as worlds:
            env = Environment()
            env.timeout(3.0)
            env.run()
        assert worlds == [] and env._eid == 1

    def test_control_scope_restores_the_previous_scope(self):
        inner = _schedule({"at": 1.0, "verb": "inject"})
        assert ChaosSchedule.scope is None
        with control_scope() as outer_worlds:
            outer = ChaosSchedule.scope
            with control_scope(schedule=inner) as inner_worlds:
                assert ChaosSchedule.scope == (inner, inner_worlds)
            assert ChaosSchedule.scope is outer
            assert outer[1] is outer_worlds
        assert ChaosSchedule.scope is None

    def test_an_action_fires_before_everything_else_at_its_instant(self):
        # A probe that wakes at exactly t=2.0 (and one at t=0) already
        # sees the drain the schedule put at that instant.
        sched = _schedule({"at": 0.0, "verb": "drain_site", "site": "site00"},
                          {"at": 2.0, "verb": "undrain_site", "site": "site00"})
        with control_scope(schedule=sched):
            handle = Scenario(sites=2, scenario="europe", seed=7).build()
            env = handle.env
            lrms = handle.testbed.sites["site00"].lrms
            seen = []

            def probe():
                seen.append((env.now, lrms.drained))
                yield env.timeout(2.0)
                seen.append((env.now, lrms.drained))

            env.run(until=env.process(probe(), name="probe"))
        assert seen == [(0.0, True), (2.0, False)]


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
        with control_scope(schedule=sched) as worlds:
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
            (world,) = worlds

        assert observed == {"drained": True, "advert_free": 0,
                            "advert_flag": True, "down": True,
                            "redrained": False, "up_again": True}
        assert [f["verb"] for f in world.fired] == [
            "drain_site", "fail_site", "undrain_site", "recover_site"]
        assert [f["at"] for f in world.fired] == [2.0, 4.0, 6.0, 8.0]
        # Satellite: every steering action is a tracer ring event.
        kinds = [e.kind for e in handle.tracer.events
                 if e.kind.startswith("steer:")]
        assert kinds == ["steer:drain_site", "steer:fail_site",
                         "steer:undrain_site", "steer:recover_site"]

    def test_inject_submits_pinned_chaos_jobs(self):
        sched = ChaosSchedule.from_dict({"version": 1, "actions": [
            {"at": 1.0, "verb": "inject", "count": 2, "runtime": 3.0}]})
        with control_scope(schedule=sched) as worlds:
            handle = Scenario(sites=2, scenario="europe", seed=3).build()
            proc, _ = _submit_batch(handle, 2, runtime=3.0, gap=1.0)
            handle.env.run(until=proc)
        (world,) = worlds
        chaos_ids = [j for j in world.jobs if j.startswith("chaos-")]
        assert chaos_ids == ["chaos-000", "chaos-001"]
        assert world.fired[0]["verb"] == "inject"

    def test_chaos_replay_is_deterministic(self):
        def once():
            sched = ChaosSchedule.from_dict({"version": 1, "actions": [
                {"at": 3.0, "verb": "drain_site", "site": "site00"},
                {"at": 9.0, "verb": "undrain_site", "site": "site00"},
            ]})
            with control_scope(schedule=sched) as worlds:
                handle = Scenario(sites=2, scenario="europe", seed=11).build()
                proc, subs = _submit_batch(handle, 3)
                handle.env.run(until=proc)
            (world,) = worlds
            return (handle.env.now, world.fired, world.site_rows(),
                    world.job_rows())

        assert once() == once()
