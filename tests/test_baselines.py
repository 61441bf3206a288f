"""Unit tests for the comparator mechanisms (ssh, glogin, agents)."""

import pytest

from repro import Scenario
from repro.baselines import GloginMechanism, InterpositionMechanism, SshMechanism
from repro.calibration import DEFAULT_CALIBRATION
from repro.jdl import StreamingMode


def run_driver(tb, gen):
    proc = tb.env.process(gen)
    tb.env.run(until=proc)
    return proc.value


class TestSsh:
    def make(self, tb):
        node = tb.site(list(tb.sites)[0]).nodes[0]
        return SshMechanism(tb.env, tb.network, tb.rng, "ui", node.name,
                            DEFAULT_CALIBRATION.ssh)

    def test_establish_costs_time(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=80,
                      publish=False).build().testbed
        mech = self.make(tb)

        def driver():
            setup = yield from mech.establish()
            return setup

        setup = run_driver(tb, driver())
        assert 0.5 < setup < 3.0
        assert mech.established

    def test_roundtrip_requires_establish(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=81,
                      publish=False).build().testbed
        mech = self.make(tb)

        def driver():
            with pytest.raises(RuntimeError):
                yield from mech.roundtrip(10, 10)
            yield tb.env.timeout(0)
            return True

        assert run_driver(tb, driver())

    def test_roundtrip_monotone_in_size(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=82,
                      publish=False).build().testbed
        mech = self.make(tb)

        def driver():
            yield from mech.establish()
            small = 0.0
            for _ in range(30):
                small += yield from mech.roundtrip(10, 10)
            large = 0.0
            for _ in range(30):
                large += yield from mech.roundtrip(10000, 10000)
            return small / 30, large / 30

        small, large = run_driver(tb, driver())
        assert large > 2 * small

    def test_chunk_cost_helper(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=83,
                      publish=False).build().testbed
        mech = self.make(tb)
        one = mech._chunked_cost(100, 4096, 0.001, 0.0)
        three = mech._chunked_cost(10000, 4096, 0.001, 0.0)
        assert three == pytest.approx(3 * one)


class TestGlogin:
    def test_wan_setup_slower_than_campus(self):
        def setup_time(scenario, wan):
            tb = Scenario(sites=1, scenario=scenario, nodes_per_site=1,
                          seed=84, publish=False).build().testbed
            node = tb.site(list(tb.sites)[0]).nodes[0]
            mech = GloginMechanism(tb.env, tb.network, tb.rng, "ui",
                                   node.name, DEFAULT_CALIBRATION.glogin,
                                   wan=wan)

            def driver():
                result = yield from mech.establish()
                return result

            return run_driver(tb, driver())

        campus = setup_time("campus", wan=False)
        wan = setup_time("wan", wan=True)
        assert wan > campus + 2.0

    def test_establish_lands_near_table1(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=85,
                      publish=False).build().testbed
        node = tb.site("uab").nodes[0]
        mech = GloginMechanism(tb.env, tb.network, tb.rng, "ui", node.name,
                               DEFAULT_CALIBRATION.glogin, wan=False)

        def driver():
            result = yield from mech.establish()
            return result

        setup = run_driver(tb, driver())
        assert 13.0 < setup < 20.0  # paper: 16.43 s


class TestInterpositionMechanism:
    def make(self, tb, mode):
        node = tb.site("uab").nodes[0]
        return InterpositionMechanism(tb.env, tb.network, tb.rng, "ui",
                                      node, DEFAULT_CALIBRATION.streaming,
                                      mode)

    def test_fast_echo_roundtrips(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=86,
                      publish=False).build().testbed
        mech = self.make(tb, StreamingMode.FAST)

        def driver():
            yield from mech.establish()
            times = []
            for _ in range(5):
                times.append((yield from mech.roundtrip(100, 100)))
            yield from mech.close()
            return times

        times = run_driver(tb, driver())
        assert len(times) == 5
        assert all(0 < t < 0.05 for t in times)

    def test_reliable_slower_than_fast(self):
        def mean_rtt(mode, seed):
            tb = Scenario(sites=1, scenario="campus", nodes_per_site=1,
                          seed=seed, publish=False).build().testbed
            mech = self.make(tb, mode)

            def driver():
                yield from mech.establish()
                total = 0.0
                for _ in range(20):
                    total += yield from mech.roundtrip(10, 10)
                return total / 20

            return run_driver(tb, driver())

        fast = mean_rtt(StreamingMode.FAST, 87)
        reliable = mean_rtt(StreamingMode.RELIABLE, 88)
        assert reliable > 2 * fast

    def test_names(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=89,
                      publish=False).build().testbed
        assert self.make(tb, StreamingMode.FAST).name == "agents-fast"
        assert self.make(tb, StreamingMode.RELIABLE).name == "agents-reliable"

    def test_one_way_not_implemented(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=90,
                      publish=False).build().testbed
        mech = self.make(tb, StreamingMode.FAST)
        with pytest.raises(NotImplementedError):
            list(mech.one_way(10, True))
