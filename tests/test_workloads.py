"""Unit tests for workload generators and canned applications."""

import pytest

from repro import Scenario
from repro.calibration import DEFAULT_CALIBRATION, LoopAppProfile
from repro.jdl import JobCategory, MachineAccess
from repro.sim import RandomStreams
from repro.workloads import (
    MixConfig,
    cpu_bound_app,
    cpu_hog,
    generate_mix,
    immediate_output_app,
    interactive_console_app,
    make_loop_app,
    progress_app,
    steerable_simulation,
)


def run_on_node(tb, behavior, session=None, **kwargs):
    node = tb.site("uab").nodes[0]
    if node.is_free:
        node.acquire("test")
    setup = session.make_setup(node.name, 0) if session else None
    proc = node.execute(behavior, "app", interactive=True, setup=setup,
                        **kwargs)
    return proc


class TestLoopApp:
    def test_sample_count_and_values(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=100,
                      publish=False).build().testbed
        profile = LoopAppProfile(iterations=50)
        proc = run_on_node(tb, make_loop_app(profile))
        tb.env.run(until=proc)
        samples = proc.value
        assert len(samples) == 50
        assert all(s.cpu_elapsed > 0.8 for s in samples)
        assert all(0.004 < s.io_elapsed < 0.009 for s in samples)
        assert [s.iteration for s in samples] == list(range(50))

    def test_total_runtime_matches_profile(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=101,
                      publish=False).build().testbed
        profile = LoopAppProfile(iterations=20)
        proc = run_on_node(tb, make_loop_app(profile))
        tb.env.run(until=proc)
        expected = 20 * (profile.cpu_burst + profile.io_time)
        assert tb.env.now == pytest.approx(expected, rel=0.02)

    def test_cpu_hog_consumes_requested_work(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=102,
                      publish=False).build().testbed
        proc = run_on_node(tb, cpu_hog(12.0))
        tb.env.run(until=proc)
        assert proc.value == pytest.approx(12.0)


class TestCannedApps:
    def _session(self, tb):
        from repro.jdl import StreamingMode
        from repro.streaming import InteractiveSession

        return InteractiveSession(tb.env, tb.network, tb.rng,
                                  DEFAULT_CALIBRATION.streaming, "ui",
                                  StreamingMode.FAST)

    def test_immediate_output_app(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=103,
                      publish=False).build().testbed
        session = self._session(tb)
        proc = run_on_node(tb, immediate_output_app("boot", run_for=0.5),
                           session=session)

        def reader(env):
            line = yield from session.read_line()
            return line.data

        r = tb.env.process(reader(tb.env))
        tb.env.run(until=r)
        assert r.value == "boot"

    def test_progress_app_emits_each_step(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=104,
                      publish=False).build().testbed
        session = self._session(tb)
        proc = run_on_node(tb, progress_app(4, 0.1), session=session)

        def reader(env):
            lines = []
            for _ in range(4):
                line = yield from session.read_line()
                lines.append(line.data)
            yield proc
            return lines

        r = tb.env.process(reader(tb.env))
        tb.env.run(until=r)
        assert r.value == [f"step {i} done" for i in range(4)]
        assert proc.value == 4

    def test_console_app_round_trip_and_exit(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=105,
                      publish=False).build().testbed
        session = self._session(tb)
        proc = run_on_node(tb, interactive_console_app(), session=session)

        def user(env):
            yield from session.read_line()  # "console ready"
            yield from session.type_line("hello")
            reply = yield from session.read_line()
            yield from session.type_line("exit")
            yield proc
            return (reply.data, proc.value)

        u = tb.env.process(user(tb.env))
        tb.env.run(until=u)
        reply, rounds = u.value
        assert reply == "> hello"
        assert rounds == 2

    def test_steerable_simulation_applies_parameter(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=106,
                      publish=False).build().testbed
        session = self._session(tb)
        proc = run_on_node(tb, steerable_simulation(0, steps=6,
                                                    step_cpu=0.05),
                           session=session)

        def user(env):
            yield from session.read_line()  # step 0
            yield from session.type_line("set 10.0")
            yield proc
            return proc.value

        u = tb.env.process(user(tb.env))
        tb.env.run(until=u)
        results = u.value
        assert results[0] == 1.0
        assert results[-1] == pytest.approx(10.0 * 6)

    def test_cpu_bound_app_no_stdio_needed(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=107,
                      publish=False).build().testbed
        proc = run_on_node(tb, cpu_bound_app(2.0))
        tb.env.run(until=proc)
        assert proc.value == 2.0


class TestMixGenerator:
    def test_deterministic(self):
        config = MixConfig(horizon=2000.0)
        a = generate_mix(RandomStreams(9), config)
        b = generate_mix(RandomStreams(9), config)
        assert [(x.at, x.job.owner, x.job.category) for x in a] == \
               [(x.at, x.job.owner, x.job.category) for x in b]

    def test_sorted_by_arrival(self):
        arrivals = generate_mix(RandomStreams(10), MixConfig(horizon=3000))
        times = [a.at for a in arrivals]
        assert times == sorted(times)

    def test_horizon_respected(self):
        arrivals = generate_mix(RandomStreams(11), MixConfig(horizon=500))
        assert all(a.at < 500 for a in arrivals)

    def test_mix_contains_both_categories(self):
        arrivals = generate_mix(RandomStreams(12),
                                MixConfig(horizon=5000))
        categories = {a.job.category for a in arrivals}
        assert categories == {JobCategory.BATCH, JobCategory.INTERACTIVE}

    def test_shared_fraction_extremes(self):
        all_shared = generate_mix(
            RandomStreams(13),
            MixConfig(horizon=4000, shared_fraction=1.0))
        inter = [a for a in all_shared
                 if a.job.category is JobCategory.INTERACTIVE]
        assert inter
        assert all(a.job.machine_access is MachineAccess.SHARED
                   for a in inter)

    def test_jobs_validate(self):
        arrivals = generate_mix(RandomStreams(14), MixConfig(horizon=4000))
        for arrival in arrivals:
            arrival.job.validate()  # raises on inconsistency

    def test_parallel_fraction(self):
        arrivals = generate_mix(
            RandomStreams(15),
            MixConfig(horizon=6000, parallel_fraction=1.0, max_nodes=4))
        inter = [a for a in arrivals
                 if a.job.category is JobCategory.INTERACTIVE]
        assert inter
        assert all(a.job.node_number >= 2 for a in inter)
