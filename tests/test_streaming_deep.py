"""Deeper streaming-layer behaviors: input-direction reliability, flush
interplay, EOF bookkeeping, and stderr routing."""

import pytest

from repro import Scenario
from repro.jdl import StreamingMode
from repro.streaming import InteractiveSession, StreamName


def make_session(tb, mode, n_subjobs=1):
    return InteractiveSession(tb.env, tb.network, tb.rng,
                              tb.calibration.streaming, "ui", mode,
                              n_subjobs=n_subjobs)


class TestInputDirectionReliability:
    def test_typed_input_survives_outage(self):
        """The reliable spool works for stdin too (§3: 'If the input or
        the output fails to be sent, data will be written on the local
        disk')."""
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=230,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        node = site.nodes[0]
        session = make_session(tb, StreamingMode.RELIABLE)

        def consumer(ctx):
            got = []
            for _ in range(5):
                chunk = yield from ctx.stdio.read()
                got.append(chunk.data)
            yield from ctx.stdio.write("all received", eol=True)
            yield from ctx.stdio.eof()
            return got

        node.acquire("t")
        proc = node.execute(consumer, "consumer", interactive=True,
                            setup=session.make_setup(node.name, 0))
        session.watch(proc)

        def user():
            yield session.agents[0].connected
            # Type two lines, then the link dies mid-session.
            yield from session.type_line("line0")
            yield from session.type_line("line1")
            tb.network.inject_outage("core", site.gatekeeper_host,
                                     env.now + 0.05, 6.0)
            yield env.timeout(0.1)
            for i in range(2, 5):
                yield from session.type_line(f"line{i}")
            confirmation = yield from session.read_line()
            result = yield proc
            return (confirmation.data, result)

        user_proc = env.process(user())
        env.run(until=user_proc)
        confirmation, received = user_proc.value
        assert confirmation == "all received"
        assert received == [f"line{i}" for i in range(5)]
        # The shadow-side sender really did retry through the outage.
        sender = session.shadow._senders[0]
        assert sender.stats.retries > 0


class TestStderrRouting:
    def test_stderr_chunks_tagged(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=231,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        session = make_session(tb, StreamingMode.FAST)

        def app(ctx):
            yield from ctx.stdio.write("to stdout", eol=True)
            yield from ctx.stdio.write("to stderr", eol=True,
                                       stream=StreamName.STDERR)
            yield from ctx.stdio.eof()

        node.acquire("t")
        node.execute(app, "app", interactive=True,
                     setup=session.make_setup(node.name, 0))

        def reader():
            lines = []
            for _ in range(2):
                line = yield from session.read_line()
                lines.append((line.stream, line.data))
            return lines

        proc = env.process(reader())
        env.run(until=proc)
        assert (StreamName.STDOUT, "to stdout") in proc.value
        assert (StreamName.STDERR, "to stderr") in proc.value


class TestFlushInterplay:
    def test_fragments_assembled_by_timeout_at_shadow(self):
        """Non-eol fragments cross the wire and surface after the JS
        buffer's timeout trigger."""
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=232,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        session = make_session(tb, StreamingMode.FAST)
        flush_timeout = tb.calibration.streaming.flush_timeout

        def app(ctx):
            # A progress bar: many small writes, no newline.
            for _ in range(5):
                yield from ctx.stdio.write(".", nbytes=1, eol=False)
                yield from ctx.io(0.01)
            yield env.timeout(2 * flush_timeout)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(app, "bar", interactive=True,
                            setup=session.make_setup(node.name, 0))

        def reader():
            line = yield from session.read_line()
            return line

        rproc = env.process(reader())
        env.run(until=rproc)
        assert rproc.value.data.count(".") >= 1  # coalesced fragments

    def test_eof_event_fires_once_all_agents_done(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=2, seed=233,
                      publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        session = make_session(tb, StreamingMode.FAST, n_subjobs=2)

        def app(delay):
            def behavior(ctx):
                yield from ctx.io(delay)
                yield from ctx.stdio.write("bye", eol=True)
                yield from ctx.stdio.eof()
            return behavior

        for rank, node in enumerate(site.nodes):
            node.acquire("t")
            node.execute(app(1.0 + rank), f"r{rank}", interactive=True,
                         setup=session.make_setup(node.name, rank))

        def waiter():
            t = yield session.shadow.all_eof
            return t

        proc = env.process(waiter())
        env.run(until=proc)
        assert proc.value > 2.0  # waited for the slower rank


class TestAgentAccounting:
    def test_write_and_read_counters(self):
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=234,
                      publish=False).build().testbed
        env = tb.env
        node = tb.site("uab").nodes[0]
        session = make_session(tb, StreamingMode.FAST)

        def app(ctx):
            yield from ctx.stdio.write("one", eol=True)
            chunk = yield from ctx.stdio.read()
            yield from ctx.stdio.write("two:" + chunk.data, eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(app, "app", interactive=True,
                            setup=session.make_setup(node.name, 0))

        def user():
            yield from session.read_line()
            yield from session.type_line("ping")
            yield from session.read_line()
            yield proc
            agent = session.agents[0]
            return (agent.writes, agent.reads)

        uproc = env.process(user())
        env.run(until=uproc)
        assert uproc.value == (2, 1)
