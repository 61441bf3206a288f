"""Differential test: ``Store`` against a settle-only reference.

``Store.put``/``get`` hand an item over directly instead of queueing the
request and calling a settle loop.  The reference below is the
queue-then-settle formulation with no shortcut; it lives here, not in
``src/``, so no second code path ships.  Random programs must produce the
same ``(eid, kind, value)`` trigger trace on both.
"""

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, Store
from repro.sim.store import StorePut


# -- the reference ------------------------------------------------------------

class RefPut(Event):
    __slots__ = ("item",)

    def __init__(self, env, item):
        super().__init__(env)
        self.item = item


class RefStore:
    """Every request is queued, then one ``_settle`` decides everything."""

    def __init__(self, env):
        self.env = env
        self.items = deque()
        self.putters = deque()
        self.getters = deque()

    def put(self, item):
        event = RefPut(self.env, item)
        self.putters.append(event)
        self._settle()
        return event

    def get(self):
        event = Event(self.env)
        self.getters.append(event)
        self._settle()
        return event

    def _settle(self):
        progress = True
        while progress:
            progress = False
            while self.putters:
                put = self.putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            while self.getters and self.items:
                self.getters.popleft().succeed(self.items.popleft())
                progress = True


# -- programs -------------------------------------------------------------------

def trace(make_store, program):
    """Run ``program`` and return every trigger as ``(eid, kind, value)``.

    Triggers land on the kernel's zero-delay lane as
    ``(time, priority, eid, event)``; they are read off it after each
    operation, before a ``drain`` runs the callbacks.
    """
    env = Environment()
    store = make_store(env)
    out = []

    def collect():
        for _time, _prio, eid, event in env._fifo:
            if not out or eid > out[-1][0]:
                kind = "put" if isinstance(event, (StorePut, RefPut)) else "get"
                out.append((eid, kind, event.value))

    for op, arg in program:
        if op == "put":
            store.put(arg)
        elif op == "get":
            store.get()
        elif op == "drain":
            env.run()
        collect()
    return out


_ops = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 8)),
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("drain"), st.none()),
)

GETTER_WAITING = [("get", None), ("drain", None), ("put", 7)]
# Getters queue in arrival order; each put wakes the oldest.
GETTERS_WAITING = [("get", None), ("get", None), ("get", None),
                   ("put", 1), ("put", 2), ("put", 3), ("put", 4),
                   ("get", None)]


class TestStoreMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(program=st.lists(_ops, max_size=40))
    @example(program=GETTER_WAITING)
    @example(program=GETTERS_WAITING)
    def test_store(self, program):
        assert trace(Store, program) == trace(RefStore, program)


class TestNamedCases:
    """The hand-off order, asserted outright against the shipped Store."""

    def test_put_fires_before_the_getter_it_wakes(self):
        assert trace(Store, GETTER_WAITING) == [(1, "put", None), (2, "get", 7)]

    def test_waiting_getters_are_served_in_arrival_order(self):
        # Three getters queue; puts 1-3 each wake the oldest, put 4 stays
        # until the last get takes it at once.
        assert trace(Store, GETTERS_WAITING) == [
            (1, "put", None), (2, "get", 1),
            (3, "put", None), (4, "get", 2),
            (5, "put", None), (6, "get", 3),
            (7, "put", None), (8, "get", 4)]
