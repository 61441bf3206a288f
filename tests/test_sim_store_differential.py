"""Differential test: ``Store``/``FilterStore`` against a settle-only reference.

``Store.put``/``get`` hand an uncontended request over directly instead of
queueing it and calling ``_settle``.  The reference below is the
queue-then-settle formulation with no shortcut; it lives here, not in
``src/``, so no second code path ships.  Random programs must produce the
same ``(eid, kind, value)`` trigger trace on both.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, FilterStore, Store


# -- the reference ------------------------------------------------------------

class RefPut(Event):
    __slots__ = ("item",)

    def __init__(self, env, item):
        super().__init__(env)
        self.item = item


class RefGet(Event):
    __slots__ = ("filter", "_cancelled")

    def __init__(self, env, filter=None):
        super().__init__(env)
        self.filter = filter
        self._cancelled = False

    def cancel(self):
        if not self.triggered:
            self._cancelled = True


class RefStore:
    """Every request is queued, then one ``_settle`` decides everything."""

    def __init__(self, env, capacity=float("inf")):
        self.env = env
        self.capacity = capacity
        self.items = deque()
        self.putters = deque()
        self.getters = deque()

    def put(self, item):
        event = RefPut(self.env, item)
        self.putters.append(event)
        self._settle()
        return event

    def get(self, filter=None):
        event = RefGet(self.env, filter)
        self.getters.append(event)
        self._settle()
        return event

    def _match(self, getter):
        for i, item in enumerate(self.items):
            if getter.filter is None or getter.filter(item):
                del self.items[i]
                getter.succeed(item)
                return True
        return False

    def _settle(self):
        progress = True
        while progress:
            progress = False
            while self.putters and len(self.items) < self.capacity:
                put = self.putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            remaining = deque()
            for getter in self.getters:
                if getter._cancelled or getter.triggered:
                    progress = True
                elif self._match(getter):
                    progress = True
                else:
                    remaining.append(getter)
            self.getters = remaining


# -- programs -------------------------------------------------------------------

def _residue(k):
    return lambda item: item % 3 == k


def trace(make_store, program):
    """Run ``program`` and return every trigger as ``(eid, kind, value)``.

    Triggers land on the kernel's zero-delay lane as
    ``(time, priority, eid, event)``; they are read off it after each
    operation, before a ``drain`` runs the callbacks.
    """
    env = Environment()
    store = make_store(env)
    gets = []
    out = []

    def collect():
        for _time, _prio, eid, event in env._fifo:
            if not out or eid > out[-1][0]:
                kind = "put" if hasattr(event, "item") else "get"
                out.append((eid, kind, event.value))

    for op, arg in program:
        if op == "put":
            store.put(arg)
        elif op == "get":
            gets.append(store.get())
        elif op == "fget":
            gets.append(store.get(_residue(arg)))
        elif op == "cancel" and gets:
            gets[arg % len(gets)].cancel()
        elif op == "drain":
            env.run()
        collect()
    return out


_plain_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 8)),
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("drain"), st.none()),
)
_filter_ops = st.one_of(
    _plain_ops, st.tuples(st.just("fget"), st.integers(0, 2)))
_capacity = st.sampled_from([float("inf"), 1, 2, 3])

# The three cases the hand-off must not get wrong.
CANCELLED_HEAD = [("get", None), ("get", None), ("cancel", 0), ("put", 5),
                  ("put", 6)]
BLOCKED_PUTTER = [("put", 1), ("put", 2), ("put", 3), ("get", None),
                  ("drain", None), ("get", None), ("get", None)]
GETTER_WAITING = [("get", None), ("drain", None), ("put", 7)]
# Head pops and in-place removal from the list-backed queues.
THREE_BLOCKED_PUTTERS = [("put", 1), ("put", 2), ("put", 3), ("put", 4),
                         ("get", None), ("get", None), ("get", None),
                         ("get", None)]
CANCELLED_MIDDLE = [("get", None), ("get", None), ("get", None),
                    ("cancel", 1), ("put", 1), ("put", 2), ("put", 3)]
FILTER_TAKES_MIDDLE = [("put", 3), ("put", 4), ("put", 5), ("fget", 1),
                       ("get", None), ("get", None)]


class TestStoreMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(capacity=_capacity, program=st.lists(_plain_ops, max_size=40))
    @example(capacity=float("inf"), program=CANCELLED_HEAD)
    @example(capacity=1, program=BLOCKED_PUTTER)
    @example(capacity=2, program=BLOCKED_PUTTER)
    @example(capacity=float("inf"), program=GETTER_WAITING)
    @example(capacity=1, program=THREE_BLOCKED_PUTTERS)
    @example(capacity=float("inf"), program=CANCELLED_MIDDLE)
    def test_store(self, capacity, program):
        assert (trace(lambda env: Store(env, capacity), program)
                == trace(lambda env: RefStore(env, capacity), program))

    @settings(max_examples=300, deadline=None)
    @given(capacity=_capacity, program=st.lists(_filter_ops, max_size=40))
    @example(capacity=2, program=[("fget", 1), ("put", 3), ("get", None),
                                  ("put", 4), ("put", 6), ("put", 9),
                                  ("fget", 0)])
    @example(capacity=float("inf"), program=FILTER_TAKES_MIDDLE)
    def test_filter_store(self, capacity, program):
        assert (trace(lambda env: FilterStore(env, capacity), program)
                == trace(lambda env: RefStore(env, capacity), program))


class TestNamedCases:
    """The same three cases, asserted outright against the shipped Store."""

    def test_cancelled_getter_at_head_is_skipped(self):
        # eid 1: put(5); eid 2: the second getter receives it; put(6) stays.
        assert trace(Store, CANCELLED_HEAD) == [
            (1, "put", None), (2, "get", 5), (3, "put", None)]

    def test_blocked_putter_is_admitted_by_a_get(self):
        got = trace(lambda env: Store(env, 1), BLOCKED_PUTTER)
        # put(1) admitted; put(2), put(3) block.  Each get frees the slot,
        # and the next blocked put fires right after the get that freed it.
        assert got == [(1, "put", None),
                       (2, "get", 1), (3, "put", None),
                       (4, "get", 2), (5, "put", None),
                       (6, "get", 3)]

    def test_put_fires_before_the_getter_it_wakes(self):
        assert trace(Store, GETTER_WAITING) == [(1, "put", None), (2, "get", 7)]
