"""Unit tests for the Store mailbox."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Store


class TestStore:
    def test_capacity_is_not_an_argument(self, env):
        # A Store is unbounded; contention is modelled in repro.grid.
        with pytest.raises(TypeError):
            Store(env, capacity=2)

    def test_fifo_order(self, env):
        store = Store(env)

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            got = []
            for _ in range(5):
                item = yield store.get()
                got.append(item)
            return got

        env.process(producer(env))
        c = env.process(consumer(env))
        env.run()
        assert c.value == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (env.now, item)

        def producer(env):
            yield env.timeout(3)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (3.0, "late")

    def test_put_fires_at_once(self, env):
        store = Store(env)

        def producer(env):
            for item in "abc":
                yield store.put(item)
            return env.now

        p = env.process(producer(env))
        env.run()
        assert p.value == 0.0
        assert store.items == ["a", "b", "c"]

    def test_len_reports_items(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2

    @settings(max_examples=30, deadline=None)
    @given(items=st.lists(st.integers(), min_size=0, max_size=30))
    def test_everything_put_is_got_in_order(self, items):
        env = Environment()
        store = Store(env)

        def producer(env):
            for item in items:
                yield store.put(item)

        def consumer(env):
            got = []
            for _ in items:
                got.append((yield store.get()))
            return got

        env.process(producer(env))
        c = env.process(consumer(env))
        env.run()
        assert c.value == items

    def test_an_empty_store_is_small(self, env):
        # A world keeps one Store per connection end and listener alive
        # (~9 900 at the end of a grid_day round), so a fresh Store must
        # stay small: two lists, not two deques (an empty deque is 760 B
        # on CPython 3.11, an empty list 56 B).
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = [Store(env) for _ in range(1000)]
            per_store = ((tracemalloc.get_traced_memory()[0] - before)
                         / len(stores))
        finally:
            tracemalloc.stop()
        assert per_store <= 256, f"{per_store:.0f} B per empty Store"

