"""Integration tests for the split-execution streaming stack."""

import pytest

from repro import Scenario
from repro.calibration import DEFAULT_CALIBRATION
from repro.jdl import StreamingMode
from repro.sim import Interrupt
from repro.streaming import DiskSpool, InteractiveSession, StreamChunk, StreamName


def make_session(tb, mode, n_subjobs=1, calibration=None):
    cal = calibration or tb.calibration
    return InteractiveSession(tb.env, tb.network, tb.rng, cal.streaming,
                              "ui", mode, n_subjobs=n_subjobs)


class TestDiskSpool:
    def test_write_read_commit_order(self, env, rng):
        spool = DiskSpool(env, rng, DEFAULT_CALIBRATION.streaming)

        def proc():
            chunk_a = StreamChunk(StreamName.STDOUT, "a", 10, True)
            chunk_b = StreamChunk(StreamName.STDOUT, "b", 10, True)
            yield from spool.write(chunk_a)
            yield from spool.write(chunk_b)
            head = yield from spool.read_head()
            assert head is chunk_a
            # read_head does not remove: reliable re-send semantics.
            head2 = yield from spool.read_head()
            assert head2 is chunk_a
            assert spool.commit_head() is chunk_a
            head3 = yield from spool.read_head()
            assert head3 is chunk_b
            return len(spool)

        p = env.process(proc())
        env.run(until=p)
        assert p.value == 1

    def test_disk_costs_consume_time(self, env, rng):
        spool = DiskSpool(env, rng, DEFAULT_CALIBRATION.streaming)

        def proc():
            yield from spool.write(
                StreamChunk(StreamName.STDOUT, "x", 10000, True))
            return env.now

        p = env.process(proc())
        env.run(until=p)
        assert p.value > 0

    def test_empty_spool_operations_raise(self, env, rng):
        spool = DiskSpool(env, rng, DEFAULT_CALIBRATION.streaming)
        with pytest.raises(IndexError):
            spool.commit_head()
        assert spool.peek() is None


class TestFastMode:
    def test_echo_roundtrips(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=20,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        session = make_session(tb, StreamingMode.FAST)

        def echo(ctx):
            for _ in range(3):
                chunk = yield from ctx.stdio.read()
                yield from ctx.stdio.write("re:" + chunk.data, eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(echo, "echo", interactive=True,
                            setup=session.make_setup(node.name, 0))

        def client(env):
            yield session.agents[0].connected
            replies = []
            for i in range(3):
                yield from session.type_line(f"m{i}")
                line = yield from session.read_line()
                replies.append(line.data)
            yield proc
            return replies

        c = env.process(client(env))
        env.run(until=c)
        assert c.value == ["re:m0", "re:m1", "re:m2"]

    def test_fast_mode_loses_data_during_outage(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=21,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        node = site.nodes[0]
        tb.network.inject_outage("core", site.gatekeeper_host, 1.0, 3.0)
        session = make_session(tb, StreamingMode.FAST)

        def chatty(ctx):
            for i in range(8):
                yield from ctx.io(0.5)
                yield from ctx.stdio.write(f"t{i}", eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(chatty, "chatty", interactive=True,
                            setup=session.make_setup(node.name, 0))
        env.run(until=proc)
        env.run(until=env.now + 2)
        stats = session.agents[0].sender.stats
        # §3: "data may be lost in case of network failure".
        assert stats.dropped > 0
        assert len(session.shadow.lines) == 8 - stats.dropped

    def test_first_output_event(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=22,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        session = make_session(tb, StreamingMode.FAST)

        def app(ctx):
            yield from ctx.io(2.0)
            yield from ctx.stdio.write("first", eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        node.execute(app, "app", interactive=True,
                     setup=session.make_setup(node.name, 0))

        def waiter(env):
            t = yield from session.wait_first_output()
            return t

        w = env.process(waiter(env))
        env.run(until=w)
        assert w.value > 2.0


class TestReliableMode:
    def test_survives_outage_in_order(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=23,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        node = site.nodes[0]
        tb.network.inject_outage("core", site.gatekeeper_host, 1.0, 4.0)
        session = make_session(tb, StreamingMode.RELIABLE)

        def chatty(ctx):
            for i in range(10):
                yield from ctx.io(0.4)
                yield from ctx.stdio.write(f"t{i}", eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(chatty, "chatty", interactive=True,
                            setup=session.make_setup(node.name, 0))
        session.watch(proc)

        def reader(env):
            got = []
            for _ in range(10):
                line = yield from session.read_line()
                got.append(line.data)
            return got

        r = env.process(reader(env))
        env.run(until=r)
        assert r.value == [f"t{i}" for i in range(10)]
        assert session.agents[0].sender.stats.dropped == 0
        assert session.agents[0].sender.stats.retries > 0

    def test_retry_exhaustion_kills_job(self):
        calibration = DEFAULT_CALIBRATION.with_streaming(
            retry_interval=0.5, max_retries=3)
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=24,
                      calibration=calibration, publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        node = site.nodes[0]
        # Outage much longer than retry budget (3 x 0.5 s).
        tb.network.inject_outage("core", site.gatekeeper_host, 1.0, 1000.0)
        session = make_session(tb, StreamingMode.RELIABLE,
                               calibration=calibration)

        def chatty(ctx):
            try:
                for i in range(1000):
                    yield from ctx.io(0.3)
                    yield from ctx.stdio.write(f"t{i}", eol=True)
            except Interrupt as interrupt:
                return ("killed", str(interrupt.cause))
            return "survived"

        node.acquire("t")
        proc = node.execute(chatty, "chatty", interactive=True,
                            setup=session.make_setup(node.name, 0))
        session.watch(proc)
        env.run(until=proc)
        assert proc.value[0] == "killed"
        assert session.fatal_reasons
        assert session.agents[0].sender.dead


class TestMpiFanIn:
    def test_multiple_agents_one_shadow(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=3, seed=25,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        session = make_session(tb, StreamingMode.FAST, n_subjobs=3)

        def rank_app(rank):
            def behavior(ctx):
                yield from ctx.stdio.write(f"hello from {rank}", eol=True)
                # Input is broadcast; only rank 0 consumes it (§4).
                if rank == 0:
                    chunk = yield from ctx.stdio.read()
                    yield from ctx.stdio.write(f"r0 got {chunk.data}",
                                               eol=True)
                yield from ctx.stdio.eof()
            return behavior

        procs = []
        for rank, node in enumerate(site.nodes):
            node.acquire("t")
            procs.append(node.execute(
                rank_app(rank), f"r{rank}", interactive=True,
                setup=session.make_setup(node.name, rank)))

        def client(env):
            yield session.shadow.all_connected
            hellos = []
            for _ in range(3):
                line = yield from session.read_line()
                hellos.append(line.subjob)
            yield from session.type_line("steer")
            line = yield from session.read_line()
            yield session.shadow.all_eof
            return (sorted(hellos), line.data)

        c = env.process(client(env))
        env.run(until=c)
        hellos, steer_reply = c.value
        assert hellos == [0, 1, 2]
        assert steer_reply == "r0 got steer"

    def test_kill_job_broadcast(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=26,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        session = make_session(tb, StreamingMode.FAST, n_subjobs=2)

        def forever(ctx):
            # A job that never ends on its own — only the console KILL
            # (delivered as SIGKILL by the CA) stops it.
            yield from ctx.stdio.write("up", eol=True)
            while True:
                yield from ctx.io(1.0)

        procs = []
        for rank, node in enumerate(site.nodes):
            node.acquire("t")
            procs.append(node.execute(
                forever, f"r{rank}", interactive=True,
                setup=session.make_setup(node.name, rank)))

        def watch(proc):
            try:
                result = yield proc
                return result
            except Interrupt as interrupt:
                return str(interrupt.cause)

        # Watchers registered up front so no failure goes unobserved.
        watchers = [env.process(watch(p)) for p in procs]

        def client(env):
            yield session.shadow.all_connected
            for _ in range(2):
                yield from session.read_line()
            yield from session.kill_job("user pressed ctrl-c")
            results = []
            for watcher in watchers:
                results.append((yield watcher))
            return results

        c = env.process(client(env))
        env.run(until=c)
        assert all("killed by console" in r for r in c.value)


class TestShadowPortPinning:
    def test_user_pinned_port(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=27,
                      publish=False).build().testbed
        session = InteractiveSession(
            tb.env, tb.network, tb.rng, tb.calibration.streaming, "ui",
            StreamingMode.FAST, n_subjobs=1, port=31234)
        assert session.port == 31234

    def test_dynamic_ports_distinct(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=28,
                      publish=False).build().testbed
        s1 = make_session(tb, StreamingMode.FAST)
        s2 = make_session(tb, StreamingMode.FAST)
        assert s1.port != s2.port
