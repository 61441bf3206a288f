"""Unit tests for connections, listeners, port allocation, and RPC."""

import weakref

import pytest

from repro.net import (
    ConnectionClosedError,
    ConnectionRefusedError_,
    Listener,
    Network,
    PortAllocator,
    PortInUseError,
    RpcClient,
    RpcError,
    RpcServer,
    connect,
)
from repro.sim import Environment, RandomStreams, collector_paused


@pytest.fixture
def world(env):
    net = Network(env, RandomStreams(7))
    net.add_host("client")
    net.add_host("server")
    net.add_link("client", "server", latency=0.001, bandwidth=1e7)
    return net


class TestPortAllocator:
    def test_dynamic_ports_unique(self, world):
        alloc = PortAllocator(world.host("server"))
        p1 = alloc.allocate()
        Listener(world, world.host("server"), p1)
        p2 = alloc.allocate()
        assert p1 != p2

    def test_pinned_port(self, world):
        alloc = PortAllocator(world.host("server"))
        assert alloc.allocate(pinned=5555) == 5555

    def test_pinned_port_conflict(self, world):
        Listener(world, world.host("server"), 5555)
        alloc = PortAllocator(world.host("server"))
        with pytest.raises(PortInUseError):
            alloc.allocate(pinned=5555)


class TestConnections:
    def test_connect_refused_without_listener(self, world, env):
        def proc(env):
            try:
                yield from connect(world, "client", "server", 9999)
            except ConnectionRefusedError_:
                return "refused"

        p = env.process(proc(env))
        env.run()
        assert p.value == "refused"

    def test_duplicate_listener_rejected(self, world):
        Listener(world, world.host("server"), 1000)
        with pytest.raises(PortInUseError):
            Listener(world, world.host("server"), 1000)

    def test_echo_roundtrip(self, world, env):
        listener = Listener(world, world.host("server"), 1000)

        def server(env):
            conn = yield from listener.accept()
            msg = yield from conn.recv()
            yield from conn.send(msg[::-1], 100)

        def client(env):
            conn = yield from connect(world, "client", "server", 1000)
            yield from conn.send("hello", 100)
            reply = yield from conn.recv()
            return reply

        env.process(server(env))
        c = env.process(client(env))
        env.run()
        assert c.value == "olleh"

    def test_in_order_delivery(self, world, env):
        listener = Listener(world, world.host("server"), 1000)

        def server(env):
            conn = yield from listener.accept()
            got = []
            for _ in range(10):
                got.append((yield from conn.recv()))
            return got

        def client(env):
            conn = yield from connect(world, "client", "server", 1000)
            for i in range(10):
                # Varying sizes would reorder without the flow clock.
                yield from conn.send(i, 10000 if i % 2 == 0 else 10)

        s = env.process(server(env))
        env.process(client(env))
        env.run()
        assert s.value == list(range(10))

    def test_send_after_close_raises(self, world, env):
        listener = Listener(world, world.host("server"), 1000)

        def server(env):
            conn = yield from listener.accept()
            conn.close()

        def client(env):
            conn = yield from connect(world, "client", "server", 1000)
            yield env.timeout(1)
            try:
                yield from conn.send("x", 10)
            except ConnectionClosedError:
                return "closed"

        env.process(server(env))
        c = env.process(client(env))
        env.run()
        assert c.value == "closed"

    def test_bytes_accounting(self, world, env):
        listener = Listener(world, world.host("server"), 1000)

        def server(env):
            conn = yield from listener.accept()
            yield from conn.recv()
            return conn.bytes_received

        def client(env):
            conn = yield from connect(world, "client", "server", 1000)
            yield from conn.send("payload", 512)
            return conn.bytes_sent

        s = env.process(server(env))
        c = env.process(client(env))
        env.run()
        assert c.value == 512
        assert s.value == 512


def _outcome(fn):
    """Run a ConnectionEnd generator method inside a process body and
    report how it ended: ("ok", value) or (exception type, message)."""
    try:
        value = yield from fn()
    except Exception as exc:  # noqa: BLE001 - the test pins type + message
        return (type(exc).__name__, str(exc))
    return ("ok", value)


def _close_world():
    env = Environment()
    net = Network(env, RandomStreams(7))
    net.add_host("client")
    net.add_host("server")
    net.add_link("client", "server", latency=0.001, bandwidth=1e7)
    return env, net


def _counters(ends):
    return {name: (end.bytes_sent, end.bytes_received, end.closed)
            for name, end in ends.items()}


def _closing_pair(first, second_at):
    """One 100-byte message each way, then ``first`` closes at t=1 and the
    other side closes at ``second_at`` (None: it only reads the FIN).
    Both sides have a receiver blocked when the first close lands."""
    env, net = _close_world()
    listener = Listener(net, net.host("server"), 1000)
    ends, seen = {}, {"client": [], "server": []}

    def side(name, conn):
        ends[name] = conn
        seen[name].append((yield from _outcome(conn.recv)))   # the data
        seen[name].append((yield from _outcome(conn.recv)))   # woken by FIN
        seen[name].append((yield from _outcome(conn.recv)))   # already closed
        seen[name].append((yield from _outcome(
            lambda: conn.send("late", 10))))

    def server(env):
        conn = yield from listener.accept()
        yield from conn.send("from-server", 100)
        yield from side("server", conn)

    def client(env):
        conn = yield from connect(net, "client", "server", 1000)
        yield from conn.send("from-client", 100)
        yield from side("client", conn)

    def closer(env):
        yield env.timeout(1.0)
        other = "server" if first == "client" else "client"
        ends[first].close()
        if second_at is not None:
            if second_at > 1.0:
                yield env.timeout(second_at - 1.0)
            ends[other].close()
            ends[other].close()  # idempotent

    for body in (server, client, closer):
        env.process(body(env))
    env.run()
    refs = [weakref.ref(end) for end in ends.values()]
    return {"seen": seen, "counters": _counters(ends), "eid": env._eid}, refs


def _mid_flight():
    """The server closes while a 1 MB client send is on the wire."""
    env, net = _close_world()
    listener = Listener(net, net.host("server"), 1000)
    ends, seen = {}, {"client": [], "server": []}

    def server(env):
        ends["server"] = conn = yield from listener.accept()
        yield env.timeout(0.05)
        conn.close()
        seen["server"].append((yield from _outcome(conn.recv)))

    def client(env):
        ends["client"] = conn = yield from connect(
            net, "client", "server", 1000)
        seen["client"].append((yield from _outcome(
            lambda: conn.send("big", 1_000_000))))
        seen["client"].append((yield from _outcome(conn.recv)))
        seen["client"].append((yield from _outcome(conn.recv)))

    env.process(server(env))
    env.process(client(env))
    env.run()
    refs = [weakref.ref(end) for end in ends.values()]
    return {"seen": seen, "counters": _counters(ends), "eid": env._eid}, refs


def _rpc_lost_path():
    """PR 10's dangling-RPC regime: the path drops while a handler runs,
    the response is lost, and the server resets the connection so the
    client's pending call fails instead of waiting forever."""
    env, net = _close_world()
    server = RpcServer(net, "server", 2000)

    def slow():
        yield env.timeout(1.0)
        return "late"

    server.register("slow", slow)
    net.inject_outage("client", "server", 0.5, 100.0)
    seen = {"client": []}
    refs = []

    def client(env):
        rpc = RpcClient(net, "client", "server", 2000)
        yield from rpc.connect()
        refs.append(weakref.ref(rpc._conn))
        seen["client"].append((yield from _outcome(
            lambda: rpc.call("slow"))))
        seen["client"].append(("connected", rpc.connected))
        yield from rpc.close()

    c = env.process(client(env))
    env.run(until=c)
    return {"seen": seen, "calls_served": server.calls_served,
            "eid": env._eid}, refs


_C, _S = "client->server:1000", "client->server:1000/srv"


def _closed(label, what):
    return ("ConnectionClosedError", f"{label}: {what}")


def _pair_expected(eid):
    """What ``_closing_pair`` produced at the parent commit, whoever
    closed first: each side reads its data, is woken by a FIN (its own
    close reads as "peer closed" too), then finds a closed end on recv
    and on send.  Only the event count depends on the order."""
    def side(label, data):
        return [("ok", data), _closed(label, "peer closed"),
                _closed(label, "connection closed"),
                _closed(label, "connection closed")]

    return {"seen": {"client": side(_C, "from-server"),
                     "server": side(_S, "from-client")},
            "counters": {"server": (100, 100, True),
                         "client": (100, 100, True)},
            "eid": eid}


#: Scenario -> (builder, what the parent commit produced).  Exception
#: types and messages, which receivers woke and how, the byte counters
#: and ``env._eid`` are the parent's: dropping the peer links when both
#: ends are closed moves none of them.
CLOSE_ORDERS = {
    "client_first": (lambda: _closing_pair("client", None),
                     _pair_expected(20)),
    "server_first": (lambda: _closing_pair("server", None),
                     _pair_expected(20)),
    "client_then_server": (lambda: _closing_pair("client", 2.0),
                           _pair_expected(21)),
    "both_in_one_instant": (lambda: _closing_pair("client", 1.0),
                            _pair_expected(21)),
    "peer_closes_mid_flight": (_mid_flight, {
        "seen": {"client": [_closed(_C, "peer closed mid-flight"),
                            _closed(_C, "peer closed"),
                            _closed(_C, "connection closed")],
                 "server": [_closed(_S, "connection closed")]},
        "counters": {"server": (0, 0, True), "client": (0, 0, True)},
        "eid": 12}),
    "rpc_server_answers_a_lost_path": (_rpc_lost_path, {
        "seen": {"client": [("ConnectionClosedError", "connection closed"),
                            ("connected", False)]},
        "calls_served": 1, "eid": 18}),
}


class TestCloseOrders:
    """Every way a connection can end, held to the parent's behaviour —
    and, with the collector off, both ends freed by reference count."""

    @pytest.mark.parametrize("order", sorted(CLOSE_ORDERS))
    def test_observable_behaviour_is_pinned(self, order):
        build, expected = CLOSE_ORDERS[order]
        observed, _ = build()
        assert observed == expected

    @pytest.mark.parametrize("order", sorted(CLOSE_ORDERS))
    def test_closed_pair_dies_without_the_collector(self, order):
        build, _ = CLOSE_ORDERS[order]
        with collector_paused():
            _, refs = build()
            assert refs and all(ref() is None for ref in refs)


class TestRpc:
    def test_sync_and_generator_handlers(self, world, env):
        server = RpcServer(world, "server", 2000)
        server.register("double", lambda x: 2 * x)

        def slow_triple(x):
            yield env.timeout(1.0)
            return 3 * x

        server.register("triple", slow_triple)

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            a = yield from rpc.call("double", 21)
            t0 = env.now
            b = yield from rpc.call("triple", 5)
            elapsed = env.now - t0
            yield from rpc.close()
            return (a, b, elapsed)

        c = env.process(client(env))
        env.run(until=c)
        a, b, elapsed = c.value
        assert (a, b) == (42, 15)
        assert elapsed >= 1.0

    def test_unknown_method_raises_rpc_error(self, world, env):
        RpcServer(world, "server", 2000)

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            try:
                yield from rpc.call("nope")
            except RpcError as exc:
                return str(exc)

        c = env.process(client(env))
        env.run(until=c)
        assert "nope" in c.value

    def test_handler_exception_forwarded(self, world, env):
        server = RpcServer(world, "server", 2000)

        def boom():
            raise ValueError("remote kaboom")

        server.register("boom", boom)

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            try:
                yield from rpc.call("boom")
            except RpcError as exc:
                return exc.message

        c = env.process(client(env))
        env.run(until=c)
        assert "remote kaboom" in c.value

    def test_decorator_registration(self, world, env):
        server = RpcServer(world, "server", 2000)

        @server.handler("ping")
        def ping():
            return "pong"

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            result = yield from rpc.call("ping")
            return result

        c = env.process(client(env))
        env.run(until=c)
        assert c.value == "pong"

    def test_calls_served_counter(self, world, env):
        server = RpcServer(world, "server", 2000)
        server.register("noop", lambda: None)

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            for _ in range(3):
                yield from rpc.call("noop")
            yield from rpc.close()

        c = env.process(client(env))
        env.run(until=c)
        assert server.calls_served == 3

    def test_call_during_outage_raises(self, world, env):
        server = RpcServer(world, "server", 2000)
        server.register("noop", lambda: None)
        world.inject_outage("client", "server", 2.0, 100.0)

        def client(env):
            rpc = RpcClient(world, "client", "server", 2000)
            yield from rpc.connect()
            yield env.timeout(5)
            try:
                yield from rpc.call("noop")
            except Exception as exc:
                return type(exc).__name__

        c = env.process(client(env))
        env.run(until=c)
        assert c.value == "LinkDownError"


class TestGsi:
    def test_handshake_costs_time(self, world, env):
        from repro.net import Credential, handshake
        from repro.sim import RandomStreams

        rng = RandomStreams(1)
        client = Credential("/CN=alice")
        server = Credential("/CN=gk")

        def proc(env):
            session = yield from handshake(env, rng, client, server,
                                           base_cost=1.4, rtt=0.01)
            return (env.now, session)

        p = env.process(proc(env))
        env.run()
        t, session = p.value
        assert 1.0 < t < 2.0
        assert session.client.subject == "/CN=alice"

    def test_expired_proxy_rejected(self, world, env):
        from repro.net import Credential, GsiError, handshake
        from repro.sim import RandomStreams

        proxy = Credential("/CN=alice").proxy(valid_until=5.0)
        server = Credential("/CN=gk")

        def proc(env):
            yield env.timeout(10)
            try:
                yield from handshake(env, RandomStreams(1), proxy, server,
                                     1.0, 0.0)
            except GsiError:
                return "expired"

        p = env.process(proc(env))
        env.run()
        assert p.value == "expired"

    def test_proxy_delegation_chain(self):
        from repro.net import Credential, GsiError

        user = Credential("/CN=bob")
        proxy = user.proxy(valid_until=100.0)
        delegated = proxy.delegate(valid_until=200.0)
        assert delegated.valid_until == 100.0  # bounded by parent
        assert delegated.owner == "/CN=bob"
        sealed = Credential("/CN=x").proxy(valid_until=10, delegated=False)
        with pytest.raises(GsiError):
            sealed.delegate(5.0)
