"""Unit tests for the environment's run loop."""

import gc

import pytest

from repro.sim import (EmptySchedule, Environment, Infinity, SimulationError,
                       collector_paused)


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4.0

    def test_run_until_past_now_required(self, env):
        env.run(until=1)
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_drains_queue(self, env):
        env.timeout(3)
        env.timeout(7)
        env.run()
        assert env.now == 7.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "answer"

        p = env.process(proc(env))
        assert env.run(until=p) == "answer"

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, "v")
        env.run()
        assert env.run(until=t) == "v"

    def test_run_until_event_never_triggered_raises(self, env):
        pending = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=pending)

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.timeout(5)
        env.run()
        assert env.now == 105.0


class TestCollectionEpoch:
    """A run pauses the cyclic collector and leaves it as it found it."""

    @staticmethod
    def churn(env, seen, steps=40):
        """Allocate far past the collector's thresholds, in cycles."""
        for _ in range(steps):
            for _ in range(1000):
                cycle = []
                cycle.append(cycle)
            seen.append(gc.isenabled())
            yield env.timeout(1)

    def test_no_collection_starts_during_a_run(self, env,
                                               collections_started):
        seen = []
        env.process(self.churn(env, seen))
        assert gc.isenabled()
        env.run()
        assert collections_started == [] and seen == [False] * 40
        assert gc.isenabled()

    def test_state_is_restored_when_the_run_returns(self, env, collector):
        seen = []
        env.process(self.churn(env, seen, steps=2))
        env.run(until=1.5)          # stops on the until event
        assert gc.isenabled() is collector
        env.run()                   # drains
        assert gc.isenabled() is collector
        assert seen == [False, False]

    def test_state_is_restored_when_a_process_raises_out(self, env,
                                                         collector):
        def boom(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(boom(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert gc.isenabled() is collector

    def test_nested_run_leaves_the_outer_pause_alone(self, env, collector):
        seen = []

        def outer(env):
            yield env.timeout(1)
            inner = Environment()
            inner.process(self.churn(inner, seen, steps=1))
            inner.run()
            seen.append(gc.isenabled())  # the inner exit re-enabled nothing

        env.process(outer(env))
        env.run()
        assert seen == [False, False]
        assert gc.isenabled() is collector

    def test_helper_restores_on_exceptions_and_nests(self, collector):
        with pytest.raises(KeyError):
            with collector_paused():
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError("x")
        assert gc.isenabled() is collector

    def test_a_steered_run_keeps_the_collector(self, env,
                                               collections_started):
        class IdleController:
            def drain(self):
                pass

        env.control = IdleController()
        seen = []
        env.process(self.churn(env, seen, steps=3))
        env.run()
        assert seen == [True] * 3 and collections_started


class TestStepAndPeek:
    def test_peek_empty_is_infinity(self, env):
        assert env.peek() == Infinity

    def test_peek_returns_next_time(self, env):
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2.0

    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_len_counts_queued_events(self, env):
        env.timeout(1)
        env.timeout(2)
        assert len(env) == 2

    def test_step_advances_clock(self, env):
        env.timeout(3)
        env.step()
        assert env.now == 3.0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def world(seed):
            from repro.sim import RandomStreams

            env = Environment()
            rng = RandomStreams(seed)
            trace = []

            def worker(env, name):
                for _ in range(5):
                    yield env.timeout(rng.jitter(f"w/{name}", 1.0, 0.3))
                    trace.append((round(env.now, 9), name))

            for name in ("a", "b", "c"):
                env.process(worker(env, name))
            env.run()
            return trace

        assert world(42) == world(42)
        assert world(42) != world(43)
