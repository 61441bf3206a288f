"""Tests for the firewall tunnel relay (§7 future work)."""

import pytest

from repro import Scenario
from repro.jdl import StreamingMode
from repro.net import (
    RelayService,
    TunnelEndpoint,
    TunnelError,
    connect_via_relay,
)
from repro.streaming import InteractiveSession


def make_relay_world(seed=130):
    tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=seed,
                  publish=False).build().testbed
    relay = RelayService(tb.env, tb.network, "broker")
    return tb, relay


class TestRelayProtocol:
    def test_register_and_attach(self):
        tb, relay = make_relay_world()
        env = tb.env
        node = tb.site("uab").nodes[0]

        def shadow_side():
            endpoint = yield from TunnelEndpoint.register(
                tb.network, "ui", "broker", "sess-1")
            vc = yield from endpoint.accept()
            message = yield from vc.recv()
            yield from vc.send("pong:" + message, 16)
            return message

        def agent_side():
            yield env.timeout(0.5)  # let registration land
            vc = yield from connect_via_relay(tb.network, node.name,
                                              "broker", "sess-1")
            yield from vc.send("ping", 16)
            reply = yield from vc.recv()
            return reply

        s = env.process(shadow_side())
        a = env.process(agent_side())
        env.run(until=s & a)
        assert s.value == "ping"
        assert a.value == "pong:ping"
        assert relay.session_count == 1
        assert relay.messages_relayed >= 3  # open + 2 data

    def test_attach_unknown_key_fails(self):
        tb, relay = make_relay_world(seed=131)
        env = tb.env
        node = tb.site("uab").nodes[0]

        def agent_side():
            try:
                yield from connect_via_relay(tb.network, node.name,
                                             "broker", "nope")
            except TunnelError as exc:
                return str(exc)

        a = env.process(agent_side())
        env.run(until=a)
        assert "unknown session" in a.value

    def test_duplicate_registration_fails(self):
        tb, relay = make_relay_world(seed=132)
        env = tb.env

        def register(delay):
            def gen():
                yield env.timeout(delay)
                try:
                    yield from TunnelEndpoint.register(tb.network, "ui",
                                                       "broker", "dup")
                    return "ok"
                except TunnelError as exc:
                    return str(exc)
            return env.process(gen())

        first = register(0.0)
        second = register(0.5)
        env.run(until=first & second)
        results = sorted([first.value, second.value])
        assert results[0] == "ok" or results[1] == "ok"
        assert any("already registered" in r for r in results if r != "ok")

    def test_multiple_channels_multiplexed(self):
        tb, relay = make_relay_world(seed=133)
        env = tb.env
        nodes = tb.site("uab").nodes

        def shadow_side():
            endpoint = yield from TunnelEndpoint.register(
                tb.network, "ui", "broker", "mux")
            seen = []
            for _ in range(2):
                vc = yield from endpoint.accept()
                message = yield from vc.recv()
                seen.append(message)
            return sorted(seen)

        def agent_side(node, tag):
            def gen():
                yield env.timeout(0.5)
                vc = yield from connect_via_relay(tb.network, node.name,
                                                  "broker", "mux")
                yield from vc.send(tag, 8)
            return env.process(gen())

        s = env.process(shadow_side())
        agent_side(nodes[0], "a")
        agent_side(nodes[1], "b")
        env.run(until=s)
        assert s.value == ["a", "b"]


class TestTunnelledConsole:
    def test_full_streaming_session_through_relay(self):
        """The complete Grid Console, zero inbound ports on the UI host."""
        tb, relay = make_relay_world(seed=134)
        env = tb.env
        node = tb.site("uab").nodes[0]

        def driver():
            endpoint = yield from TunnelEndpoint.register(
                tb.network, "ui", "broker", "console-1")
            session = InteractiveSession(
                env, tb.network, tb.rng, tb.calibration.streaming, "ui",
                StreamingMode.FAST, n_subjobs=1,
                tunnel_endpoint=endpoint, relay_host="broker",
                tunnel_key="console-1")
            assert session.shadow.port is None  # no port at all

            def echo(ctx):
                for _ in range(3):
                    chunk = yield from ctx.stdio.read()
                    yield from ctx.stdio.write("re:" + chunk.data, eol=True)
                yield from ctx.stdio.eof()

            node.acquire("t")
            node.execute(echo, "echo", interactive=True,
                         setup=session.make_setup(node.name, 0))
            yield session.agents[0].connected
            replies = []
            for i in range(3):
                yield from session.type_line(f"m{i}")
                line = yield from session.read_line()
                replies.append(line.data)
            return replies

        proc = env.process(driver())
        env.run(until=proc)
        assert proc.value == ["re:m0", "re:m1", "re:m2"]
        assert relay.messages_relayed > 6

    def test_tunnel_costs_more_than_direct(self):
        """Two store-and-forward hops are measurably slower than direct."""

        def mean_rtt(tunnel: bool, seed: int) -> float:
            tb = Scenario(sites=1, scenario="campus", nodes_per_site=1,
                          seed=seed, publish=False).build().testbed
            env = tb.env
            node = tb.site("uab").nodes[0]

            def driver():
                kwargs = {}
                if tunnel:
                    RelayService(env, tb.network, "broker")
                    endpoint = yield from TunnelEndpoint.register(
                        tb.network, "ui", "broker", "k")
                    kwargs = dict(tunnel_endpoint=endpoint,
                                  relay_host="broker", tunnel_key="k")
                session = InteractiveSession(
                    env, tb.network, tb.rng, tb.calibration.streaming,
                    "ui", StreamingMode.FAST, n_subjobs=1, **kwargs)

                def echo(ctx):
                    while True:
                        chunk = yield from ctx.stdio.read()
                        if chunk.data == "quit":
                            break
                        yield from ctx.stdio.write(chunk.data, eol=True)
                    yield from ctx.stdio.eof()

                node.acquire("t")
                node.execute(echo, "echo", interactive=True,
                             setup=session.make_setup(node.name, 0))
                yield session.agents[0].connected
                start = env.now
                for i in range(20):
                    yield from session.type_line("x", nbytes=10)
                    yield from session.read_line()
                elapsed = env.now - start
                yield from session.type_line("quit")
                return elapsed / 20

            proc = env.process(driver())
            env.run(until=proc)
            return proc.value

        direct = mean_rtt(False, 135)
        tunneled = mean_rtt(True, 136)
        assert tunneled > direct

    def test_session_validation(self):
        tb, relay = make_relay_world(seed=137)
        with pytest.raises(ValueError):
            InteractiveSession(tb.env, tb.network, tb.rng,
                               tb.calibration.streaming, "ui",
                               StreamingMode.FAST, relay_host="broker")
