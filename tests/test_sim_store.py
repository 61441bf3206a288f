"""Unit tests for object stores."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FilterStore, Store


class TestStore:
    def test_capacity_positive(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

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

    def test_put_blocks_at_capacity(self, env):
        store = Store(env, capacity=1)

        def producer(env):
            yield store.put("a")
            yield store.put("b")
            return env.now

        def consumer(env):
            yield env.timeout(2)
            yield store.get()

        p = env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert p.value == 2.0

    def test_len_reports_items(self, env):
        store = Store(env)
        store.put("x")
        store.put("y")
        env.run()
        assert len(store) == 2

    def test_cancelled_getter_skipped(self, env):
        store = Store(env)

        def canceller(env):
            get = store.get()
            yield env.timeout(1)
            get.cancel()
            return get.triggered

        def late_consumer(env):
            yield env.timeout(2)
            item = yield store.get()
            return item

        c = env.process(canceller(env))
        lc = env.process(late_consumer(env))

        def producer(env):
            yield env.timeout(3)
            yield store.put("only")

        env.process(producer(env))
        env.run()
        assert c.value is False
        assert lc.value == "only"

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
        # stay a few hundred bytes: three lists, not three deques (an
        # empty deque is 760 B on CPython 3.11, an empty list 56 B).
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stores = [Store(env) for _ in range(1000)]
            per_store = ((tracemalloc.get_traced_memory()[0] - before)
                         / len(stores))
        finally:
            tracemalloc.stop()
        assert per_store <= 512, f"{per_store:.0f} B per empty Store"


class TestFilterStore:
    def test_filtered_get(self, env):
        store = FilterStore(env)
        for item in (1, 2, 3, 4):
            store.put(item)

        def consumer(env):
            even = yield store.get(lambda x: x % 2 == 0)
            odd = yield store.get(lambda x: x % 2 == 1)
            return (even, odd)

        c = env.process(consumer(env))
        env.run()
        assert c.value == (2, 1)
        assert list(store.items) == [3, 4]

    def test_filter_waits_for_matching_item(self, env):
        store = FilterStore(env)

        def consumer(env):
            item = yield store.get(lambda x: x == "wanted")
            return (env.now, item)

        def producer(env):
            yield store.put("noise")
            yield env.timeout(5)
            yield store.put("wanted")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (5.0, "wanted")
        assert list(store.items) == ["noise"]

    def test_unfiltered_get_takes_oldest(self, env):
        store = FilterStore(env)
        store.put("first")
        store.put("second")

        def consumer(env):
            item = yield store.get()
            return item

        c = env.process(consumer(env))
        env.run()
        assert c.value == "first"
