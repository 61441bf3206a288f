"""Unit tests for workload generators and canned applications."""

import hashlib
import itertools

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
    iter_mix,
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


class TestLazyMix:
    def test_iter_mix_matches_generate_mix(self):
        """The lazy merge is value-identical to the eager two-pass path."""
        config = MixConfig(horizon=8_000, parallel_fraction=0.3)
        eager = generate_mix(RandomStreams(21), config)
        lazy = list(iter_mix(RandomStreams(21), config))
        assert [(a.at, a.job.job_id, a.job.owner) for a in eager] == \
               [(a.at, a.job.job_id, a.job.owner) for a in lazy]

    def test_iter_mix_is_consumable_incrementally(self):
        stream = iter_mix(RandomStreams(22), MixConfig(horizon=50_000))
        head = list(itertools.islice(stream, 10))
        assert len(head) == 10
        assert [a.at for a in head] == sorted(a.at for a in head)


#: ``bench/workloads.py``'s ``grid_day`` mix (its ``GRID_DAY`` sizes).
GRID_DAY_MIX = dict(batch_interarrival=70.0, interactive_interarrival=30.0,
                    shared_fraction=0.6)

#: name -> (seed, config, arrivals, sha256 of ``repr()`` of the arrivals).
MIX_PINS = {
    "grid_day": (2006, MixConfig(horizon=36000.0, **GRID_DAY_MIX), 1721,
                 "a2b05e32e9aa0ed1fffd4a74b168643524a6f4aa6f8fdee2a5f0cf47348235d5"),
    "default": (1, MixConfig(), 17,
                "8dc30181cb178c740ab72e691718a8bb4fb789fae096ee84d332e4e48574cba3"),
    "parallel": (15, MixConfig(horizon=6000.0, parallel_fraction=0.3), 54,
                 "eb0ebe920aef3d632d3c7cdc172dc671c5a526bc94c06c637a4def2d5ae0515c"),
    "smoke": (2006, MixConfig(horizon=1800.0, **GRID_DAY_MIX), 89,
              "b58da950618efce67790ce469d8f6f22b7bce6f107a390eff05e39a9b91dc14f"),
}


class TestMixPins:
    """Every arrival of four mixes, byte for byte: times, owners, ids,
    flavours and runtimes.  A change to how the mix draws (or to how a
    named stream is seeded) that moves any value fails here before it
    reaches a golden."""

    @pytest.mark.parametrize("name", sorted(MIX_PINS))
    def test_mix_is_pinned(self, name):
        seed, config, count, digest = MIX_PINS[name]
        arrivals = generate_mix(RandomStreams(seed), config)
        assert len(arrivals) == count
        assert hashlib.sha256(repr(arrivals).encode()).hexdigest() == digest

    def test_parallel_pin_holds_parallel_jobs(self):
        _, config, _, _ = MIX_PINS["parallel"]
        arrivals = generate_mix(RandomStreams(15), config)
        assert any(a.job.node_number > 1 for a in arrivals)
