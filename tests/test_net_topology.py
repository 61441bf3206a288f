"""Unit tests for hosts, links, routing, and failure windows."""

import pytest

from repro.net import LinkDownError, Network, NoRouteError
from repro.sim import RandomStreams


@pytest.fixture
def net(env):
    network = Network(env, RandomStreams(5))
    for name in ("a", "b", "c", "d", "isolated"):
        network.add_host(name)
    network.add_link("a", "b", latency=0.001, bandwidth=1e6)
    network.add_link("b", "c", latency=0.002, bandwidth=2e6)
    network.add_link("a", "d", latency=0.010, bandwidth=1e5)
    network.add_link("d", "c", latency=0.010, bandwidth=1e5)
    return network


class TestConstruction:
    def test_duplicate_host_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_link_needs_existing_hosts(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "nope", 0.001, 1e6)

    def test_self_link_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "a", 0.001, 1e6)

    def test_duplicate_link_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_link("b", "a", 0.001, 1e6)

    def test_link_lookup_symmetric(self, net):
        assert net.link("a", "b") is net.link("b", "a")


class TestRouting:
    def test_route_prefers_fewest_hops(self, net):
        path = net.route("a", "c")
        assert len(path) == 2  # a-b-c, not a-d-c (same hops) — BFS stable
        assert path[0].key() == ("a", "b")

    def test_route_to_self_is_empty(self, net):
        assert net.route("a", "a") == []

    def test_no_route_raises(self, net):
        with pytest.raises(NoRouteError):
            net.route("a", "isolated")

    def test_route_cache_invalidated_by_new_link(self, net):
        assert len(net.route("a", "c")) == 2
        net.add_link("a", "c", 0.0001, 1e9)
        assert len(net.route("a", "c")) == 1


class TestTransferTiming:
    def test_base_transfer_time_formula(self, net):
        # a->c: latency 0.001+0.002, bottleneck bandwidth 1e6
        expected = 0.003 + 1000 / 1e6
        assert net.base_transfer_time("a", "c", 1000) == pytest.approx(expected)

    def test_zero_hop_transfer_is_free(self, net):
        assert net.base_transfer_time("a", "a", 10**9) == 0.0

    def test_jittered_time_positive_and_bounded_below(self, net):
        base = net.base_transfer_time("a", "c", 500)
        for _ in range(50):
            t = net.transfer_time("a", "c", 500)
            assert t >= base * 0.25

    def test_ordered_arrival_is_monotonic(self, net):
        flow = ("a", "c", 99)
        t1 = net.ordered_arrival(flow, 0.010)
        t2 = net.ordered_arrival(flow, 0.001)  # faster msg sent later
        assert t2 > t1 or t2 == pytest.approx(t1 + 1e-9, abs=1e-8)


class TestOutages:
    def test_link_down_window(self, net):
        net.inject_outage("a", "b", 5.0, 3.0)
        link = net.link("a", "b")
        assert link.is_up(4.99)
        assert not link.is_up(5.0)
        assert not link.is_up(7.99)
        assert link.is_up(8.0)

    def test_path_up_checks_all_links(self, net):
        net.inject_outage("b", "c", 1.0, 1.0)
        assert net.path_up("a", "c", time=0.5)
        assert not net.path_up("a", "c", time=1.5)

    def test_check_path_raises_when_down(self, net, env):
        net.inject_outage("a", "b", 0.0, 10.0)
        with pytest.raises(LinkDownError):
            net.check_path("a", "b")

    def test_outage_duration_positive(self, net):
        with pytest.raises(ValueError):
            net.inject_outage("a", "b", 1.0, 0.0)


class TestPathRecordFreshness:
    """One record per (src, dst) is cached on first use.  ``add_link``
    is the only thing that clears it; outage windows are read live."""

    def test_add_link_after_caching_changes_route_and_timing(self, net):
        assert len(net.route("a", "c")) == 2
        slow = net.base_transfer_time("a", "c", 1000)
        net.transfer_time("a", "c", 1000)  # record in use by every reader
        net.add_link("a", "c", 0.0001, 1e9, jitter=0.0)
        assert [l.key() for l in net.route("a", "c")] == [("a", "c")]
        assert net.base_transfer_time("a", "c", 1000) == 0.0001 + 1000 / 1e9
        assert net.transfer_time("a", "c", 1000) == 0.0001 + 1000 / 1e9 < slow

    def test_outage_injected_after_caching_is_seen(self, net, env):
        assert net.path_up("a", "c")  # caches a-b-c
        net.inject_outage("b", "c", 1.0, 2.0)
        assert net.path_up("a", "c", time=0.5)
        assert not net.path_up("a", "c", time=1.0)
        assert net.path_up("a", "c", time=3.0)
        env.run(until=1.5)
        with pytest.raises(LinkDownError):
            net.check_path("a", "c")
        env.run(until=3.0)
        net.check_path("a", "c")

    def test_fail_and_recover_after_caching(self, net, env):
        net.check_path("a", "c")
        link = net.link("a", "b")
        env.run(until=2.0)
        link.fail(env.now)
        assert not net.path_up("a", "c")
        env.run(until=5.0)
        link.recover(env.now)  # rebinds link.outages: must not be held
        assert net.path_up("a", "c")
        assert not net.path_up("a", "c", time=4.0)

    def test_isolate_and_restore_host_after_caching(self, net, env):
        assert net.path_up("a", "c") and net.path_up("c", "a")
        assert net.isolate_host("b") == 2
        for src, dst in (("a", "c"), ("c", "a"), ("a", "b")):
            with pytest.raises(LinkDownError):
                net.check_path(src, dst)
        net.check_path("a", "d")  # does not touch b
        env.run(until=4.0)
        assert net.restore_host("b") == 2
        net.check_path("a", "c")
        assert not net.path_up("a", "c", time=2.0)

    @pytest.mark.parametrize("dst, hops", [("h1", 1), ("h2", 2), ("h3", 3)])
    def test_transfer_time_is_bit_identical_to_the_long_way(self, env, dst,
                                                             hops):
        def chain(seed):
            network = Network(env, RandomStreams(seed))
            for name in ("h0", "h1", "h2", "h3"):
                network.add_host(name)
            network.add_link("h0", "h1", 0.0013, 3e6, jitter=0.02)
            network.add_link("h1", "h2", 0.0171, 7e5, jitter=0.11)
            network.add_link("h2", "h3", 0.0049, 9e6, jitter=0.07)
            return network

        net, rng = chain(11), RandomStreams(11)
        links = [net.link(f"h{i}", f"h{i + 1}") for i in range(hops)]
        for nbytes in (0, 64, 1500, 10**6):
            base = (sum(l.latency for l in links)
                    + nbytes / min(l.bandwidth for l in links))
            assert net.base_transfer_time("h0", dst, nbytes) == base
            want = rng.jitter(f"net/h0->{dst}", base,
                              max(l.jitter for l in links), floor=base * 0.25)
            assert net.transfer_time("h0", dst, nbytes) == want


class TestFailurePlans:
    def test_periodic_outages(self):
        from repro.net import periodic_outages

        plan = periodic_outages(("a", "b"), first=10, period=20, duration=5,
                                count=3)
        assert plan.windows == ((10, 5), (30, 5), (50, 5))

    def test_periodic_validates_period(self):
        from repro.net import periodic_outages

        with pytest.raises(ValueError):
            periodic_outages(("a", "b"), 0, period=3, duration=5, count=1)

    def test_random_outages_deterministic(self):
        from repro.net import random_outages
        from repro.sim import RandomStreams

        p1 = random_outages(RandomStreams(3), ("a", "b"), 1000, 100, 10)
        p2 = random_outages(RandomStreams(3), ("a", "b"), 1000, 100, 10)
        assert p1.windows == p2.windows
        assert all(start < 1000 for start, _ in p1.windows)

    def test_plan_apply(self, net):
        from repro.net import periodic_outages

        plan = periodic_outages(("a", "b"), 1, 10, 2, 2)
        plan.apply(net)
        assert not net.link("a", "b").is_up(1.5)
        assert not net.link("a", "b").is_up(11.5)
        assert net.link("a", "b").is_up(5.0)
