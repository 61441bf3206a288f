"""Regression tests for the event/sender lifecycle fixes.

Each test here pins one concrete bug that existed in the kernel or the
streaming layer:

* ``ChunkSender.idle`` reported True for a chunk that was mid-``send``
  (popped from the outbox, not yet delivered), letting EOF teardown
  strand the tail of a fast-mode stream;
* ``Condition._check`` early-returned without defusing a member that
  failed *after* the condition's outcome was decided, crashing the whole
  simulation from :meth:`Environment.step`;
* ``StreamBuffer.write`` left the residual tail of a capacity-crossing
  write without a running timeout window when the dirty clock had been
  reset by the "full" flush, so the tail never flushed;
* ``ResourceSelector.refresh_site`` yielded from its ``finally`` when a
  world stopped mid-selection was collected, so every suspended refresh
  printed ``generator ignored GeneratorExit``.
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from repro import Scenario
from repro.calibration import DEFAULT_CALIBRATION
from repro.jdl import StreamingMode
from repro.net.failures import random_outages
from repro.sim import Store
from repro.streaming import (
    ChunkSender,
    InteractiveSession,
    StreamBuffer,
    StreamChunk,
    StreamName,
)
from repro.workloads import cpu_bound_app, synthetic_job


class _SlowLink:
    """Minimal ConnectionEnd stand-in whose ``send`` consumes sim-time."""

    def __init__(self, env, delay: float) -> None:
        self.env = env
        self.delay = delay
        self.delivered = []
        self.local = "node"
        self.remote = "ui"
        self.network = types.SimpleNamespace(
            path=lambda src, dst: types.SimpleNamespace(latency=0.0))

    def send(self, payload, nbytes):
        yield self.env.timeout(self.delay)
        self.delivered.append(payload)


class TestSenderInFlight:
    def test_idle_false_while_chunk_mid_send(self, env, rng):
        """A popped-but-undelivered chunk must keep the sender non-idle.

        Pre-fix, ``idle`` only looked at the outbox and the spool; a
        fast-mode chunk that was mid-``send`` lived in neither, so EOF
        teardown (which polls ``idle``) could conclude the stream had
        drained and tear the connection down under the last chunk.
        """
        outbox = Store(env)
        sender = ChunkSender(env, rng, DEFAULT_CALIBRATION.streaming,
                             StreamingMode.FAST, outbox)
        conn = _SlowLink(env, delay=1.0)
        sender.attach(conn)
        outbox.put(StreamChunk(StreamName.STDOUT, "tail", 64, True))

        env.run(until=env.timeout(0.5))
        # Mid-send: gone from the outbox, not yet on the wire.
        assert len(outbox.items) == 0
        assert not conn.delivered
        assert not sender.idle  # the regression: this used to be True

        env.run(until=env.timeout(1.0))
        assert [c.data for c in conn.delivered] == ["tail"]
        assert sender.idle
        assert sender.stats.sent == 1

    def test_idle_true_before_any_chunk(self, env, rng):
        sender = ChunkSender(env, rng, DEFAULT_CALIBRATION.streaming,
                             StreamingMode.FAST, Store(env))
        assert sender.idle


class TestConditionLateLoser:
    def test_loser_failing_after_pretriggered_winner_does_not_crash(self, env):
        """AnyOf whose winner was pre-triggered keeps ``_check`` on the
        losers; a loser failing later must be defused, not crash the run."""
        a = env.event()
        a.succeed("winner")
        env.run()  # process `a` so AnyOf sees it as already decided
        b = env.event()
        cond = env.any_of([a, b])

        def failer():
            yield env.timeout(1.0)
            b.fail(RuntimeError("late loser"))

        env.process(failer())
        env.run()  # pre-fix: RuntimeError("late loser") escaped step()
        assert cond.triggered and cond.ok
        assert a in cond.value
        assert b.defused

    def test_loser_failure_still_propagates_when_undecided(self, env):
        """The fix must not swallow failures that *should* decide the
        condition: a member failing first still fails the AllOf."""
        a = env.event()
        b = env.event()
        cond = env.all_of([a, b])

        def failer():
            yield env.timeout(1.0)
            b.fail(RuntimeError("decides the condition"))

        def waiter():
            with pytest.raises(RuntimeError, match="decides the condition"):
                yield cond

        env.process(failer())
        proc = env.process(waiter())
        env.run(until=proc)


class TestBufferResidualRearm:
    def test_residual_after_full_flush_rearms_timer(self, env):
        """The tail left behind by a "full" flush must start a fresh
        timeout window *and* wake the parked timer.

        White-box setup: the bug needs ``write`` to be entered with the
        dirty clock already running while the timer process is parked on
        the wakeup event (so the top-of-call arming is skipped); we force
        that precondition directly, then cross the capacity boundary.
        Pre-fix the 4-byte residual sat stranded forever.
        """
        outbox = Store(env)
        buf = StreamBuffer(env, StreamName.STDOUT, capacity=10,
                           flush_timeout=1.0, outbox=outbox)
        env.run(until=env.timeout(0.1))  # timer parks on the wakeup event
        buf._dirty_since = env.now  # force the entry-dirty precondition
        buf.write("x" * 14, 14, eol=False)
        assert buf.pending_bytes == 4  # residual tail after the full flush
        assert buf.flush_counts["full"] == 1

        env.run(until=env.timeout(5.0))
        assert buf.pending_bytes == 0  # pre-fix: still 4, timer parked
        assert buf.flush_counts["timeout"] >= 1
        flushed = [c.nbytes for c in outbox.items]
        assert flushed == [10, 4]


class TestReliableReconnectUnderRandomOutages:
    def test_spool_drains_in_order_with_consistent_stats(self):
        """Reliable mode under a random outage schedule: every line
        arrives exactly once in order, the spool returns to empty, and
        the retry/backoff statistics are mutually consistent."""
        calibration = DEFAULT_CALIBRATION.with_streaming(
            retry_interval=0.5, max_retries=100)
        tb = Scenario(sites=1, scenario="campus", nodes_per_site=1, seed=31,
                      calibration=calibration, publish=False).build().testbed
        env = tb.env
        site = tb.site("uab")
        plan = random_outages(tb.rng, ("core", site.gatekeeper_host),
                              horizon=12.0, mean_interval=2.5,
                              mean_duration=1.2)
        assert plan.windows, "seed must actually generate outages"
        plan.apply(tb.network)

        session = InteractiveSession(env, tb.network, tb.rng,
                                     calibration.streaming, "ui",
                                     StreamingMode.RELIABLE, n_subjobs=1)
        node = site.nodes[0]
        n_lines = 40

        def chatty(ctx):
            for i in range(n_lines):
                yield from ctx.io(0.3)
                yield from ctx.stdio.write(f"t{i}", eol=True)
            yield from ctx.stdio.eof()

        node.acquire("t")
        proc = node.execute(chatty, "chatty", interactive=True,
                            setup=session.make_setup(node.name, 0))
        session.watch(proc)

        def reader():
            got = []
            for _ in range(n_lines):
                line = yield from session.read_line()
                got.append(line.data)
            return got

        r = env.process(reader())
        env.run(until=r)

        # No loss, no reordering, no duplication.
        assert r.value == [f"t{i}" for i in range(n_lines)]
        sender = session.agents[0].sender
        stats = sender.stats
        assert stats.dropped == 0 and stats.bytes_dropped == 0
        assert stats.sent == n_lines
        # The outage windows really were hit.
        assert stats.retries > 0
        assert not sender.dead
        # Backoff accounting: one ~retry_interval wait per retry (5%
        # jitter), so the mean wait must sit near the configured value.
        mean_wait = stats.reconnect_waits / stats.retries
        assert 0.7 * 0.5 <= mean_wait <= 1.3 * 0.5
        # Everything delivered: spool empty, sender idle again.
        assert sender.spool is not None and sender.spool.empty
        assert sender.idle


class TestStoppedWorldCollection:
    @pytest.mark.parametrize("mode", ["push", "pull", "data"])
    def test_collecting_a_world_stopped_mid_selection_is_silent(
            self, monkeypatch, mode):
        reports = []
        monkeypatch.setattr(sys, "unraisablehook", reports.append)
        handle = Scenario(sites=20, seed=1, broker_mode=mode).build()
        handle.submit(synthetic_job("j-000", "u", 5.0, "app"),
                      lambda rank: cpu_bound_app(5.0),
                      attach_console=False)
        handle.run(until=1.5)  # the broker is refreshing sites
        del handle
        gc.collect()
        assert [str(r.exc_value) for r in reports] == []
