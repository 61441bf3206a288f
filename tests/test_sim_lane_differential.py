"""Differential test: every kernel run loop against the fast loop.

The kernel has one event order and several loops that realise it: the
fast loop (``Environment._drain``), the observed loop
(``_drain_observed``, taken with a profiler attached), a ``step()`` loop
and, when the extension is built and selected (``REPRO_SIM_COMPILED=1``),
the C transcription in ``sim/_speedups.c``.
``tests/test_kernel_determinism.py`` holds them to two pinned fixtures;
here Hypothesis generates the programs.  Each program mixes timeouts,
zero-delay chains, URGENT interrupts, ``Timer`` cancel/re-arm,
``AnyOf``/``AllOf`` fan-in, process failure, ``Store`` put/get, an event
handed to ``Environment.schedule`` a second time and
scripted steering actions (``STEER`` entries, the way ``Scenario.build``
queues a chaos schedule), and every loop must give the same
``(env.now, tag)`` callback log, the same final ``env.now`` and
``env._eid``, and a clean sanitizer.

The steering actions are also replayed by :func:`run_cursor`, the
between-pops cursor the kernel used before actions were queue entries:
it fires every action whose ``at`` is at or before the next entry's
time.  Entries and cursor must give the same log.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    STEER,
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Interrupt,
    Store,
    Timer,
)
from repro.sim.environment import _unhandled
from repro.sim._compiled import compiled_lane_active


# -- programs -------------------------------------------------------------------

def push_steer(env, at, fire):
    """Queue ``fire`` as a steering action at ``at``, as
    ``SteeringAdapter.replay`` queues a chaos action."""
    entry = env.event()
    entry.callbacks.append(lambda _entry: fire())
    env.schedule(entry, STEER, at - env.now)


def build(env, program, log, steer=push_steer):
    """Start every process of ``program`` on ``env``; ``log`` collects
    ``(env.now, tag)`` from each callback.  ``steer(env, at, fire)``
    schedules each steering action."""

    def note(tag):
        log.append((env.now, tag))

    def timeouts(k, delays):
        for i, delay in enumerate(delays):
            yield env.timeout(delay)
            note(f"timeout:{k}:{i}")

    def chain(k, depth):
        for i in range(depth):
            ev = env.event()
            ev.succeed(i)
            got = yield ev
            note(f"chain:{k}:{got}")

    def sleeper(k, sleep):
        try:
            yield env.timeout(sleep)
            note(f"woke:{k}")
        except Interrupt as intr:
            note(f"interrupted:{k}:{intr.cause}")

    def interrupter(k, victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            victim.interrupt(cause=k)
        note(f"interrupter:{k}")

    def rearmer(k, timer, at, delay):
        yield env.timeout(at)
        if delay is None:
            timer.cancel()
        else:
            timer.arm(delay)
        note(f"rearm:{k}")

    def fan_in(k, kind, delays):
        events = [env.timeout(delay, value=i) for i, delay in enumerate(delays)]
        result = yield (AnyOf if kind == "anyof" else AllOf)(env, events)
        note(f"{kind}:{k}:{sorted(result.values())}")

    def failing(k, delay):
        yield env.timeout(delay)
        raise ValueError(k)

    def guardian(k, delay):
        try:
            yield env.process(failing(k, delay), name=f"failing-{k}")
        except ValueError as exc:
            note(f"caught:{exc}")

    def producer(k, box, delays):
        for i, delay in enumerate(delays):
            yield env.timeout(delay)
            yield box.put(i)
            note(f"put:{k}:{i}")

    def consumer(k, box, count):
        for _ in range(count):
            item = yield box.get()
            note(f"got:{k}:{item}")

    def action(k):
        # Like a chaos verb: act on the world and start work (an
        # Initialize on the URGENT lane, then a zero-delay chain).
        note(f"steer:{k}")
        env.process(chain(k, 2))

    for k, (op, *args) in enumerate(program):
        if op == "timeouts":
            env.process(timeouts(k, args[0]))
        elif op == "chain":
            env.process(chain(k, args[0]))
        elif op == "interrupt":
            sleep, at = args
            victim = env.process(sleeper(k, sleep))
            env.process(interrupter(k, victim, at))
        elif op == "timer":
            first, at, delay = args
            timer = Timer(env, callback=lambda t, k=k: note(f"timer:{k}"))
            timer.arm(first)
            env.process(rearmer(k, timer, at, delay))
        elif op in ("anyof", "allof"):
            env.process(fan_in(k, op, args[0]))
        elif op == "fail":
            env.process(guardian(k, args[0]))
        elif op == "store":
            box = Store(env)
            env.process(consumer(k, box, len(args[0])))
            env.process(producer(k, box, args[0]))
        elif op == "steer":
            steer(env, args[0], lambda k=k: action(k))
        elif op == "twice":
            # succeed() queues the event; the public schedule() queues it
            # again.  The second pop finds it processed and only moves
            # the clock.
            ev = env.event()
            ev.callbacks.append(lambda _ev, k=k: note(f"twice:{k}"))
            ev.succeed()
            env.schedule(ev, delay=args[0])


_delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
_delays = st.lists(_delay, min_size=1, max_size=5)
_ops = st.one_of(
    st.tuples(st.just("timeouts"), _delays),
    st.tuples(st.just("chain"), st.integers(1, 5)),
    st.tuples(st.just("interrupt"), _delay, _delay),
    st.tuples(st.just("timer"), _delay, _delay, st.one_of(st.none(), _delay)),
    st.tuples(st.just("anyof"), _delays),
    st.tuples(st.just("allof"), _delays),
    st.tuples(st.just("fail"), _delay),
    st.tuples(st.just("store"), _delays),
    st.tuples(st.just("steer"), _delay),
    st.tuples(st.just("twice"), _delay),
)

# Every feature at once, with same-time ties between all of them.
EVERYTHING_AT_ONCE = [
    ("timeouts", [0.0, 0.5, 0.5]), ("chain", 3), ("interrupt", 1.0, 0.5),
    ("interrupt", 0.5, 0.5), ("timer", 1.0, 0.5, 0.25),
    ("timer", 1.0, 0.5, None), ("anyof", [0.5, 0.0, 1.0]),
    ("allof", [0.5, 0.5]), ("fail", 0.5), ("store", [0.0, 0.5, 0.0]),
    ("steer", 0.0), ("steer", 0.5), ("steer", 0.25), ("steer", 0.5),
    ("twice", 0.0), ("twice", 0.5),
]


# -- lanes ---------------------------------------------------------------------

def _step(env):
    try:
        while True:
            env.step()
    except EmptySchedule:
        pass


def run_lane(lane, program):
    env = Environment(sanitize=True, profile=lane == "profiler")
    log = []
    build(env, program, log)
    if lane == "fast":
        env._drain()
    elif lane == "step":
        _step(env)
    else:  # profiler: the observed loop; compiled: the C loop
        env.run()
    env.sanitizer.assert_clean()
    return log, env.now, env._eid


LANES = ("profiler", "step")


def run_cursor(program):
    """The reference: steering actions fired by the retired cursor.

    The loop pops entries one at a time (tombstones too) and, before
    each pop, fires every due action — one whose ``at`` is at or before
    the next entry's time, or any action once the queue is empty — after
    moving the clock forward to its ``at``.  The cursor consumed no eids,
    so the queue-entry lanes end ``len(actions)`` eids further on.
    """
    env = Environment(sanitize=True)
    log, actions = [], []
    build(env, program, log,
          steer=lambda env, at, fire: actions.append((at, fire)))
    pending = deque(sorted(actions, key=lambda action: action[0]))
    while True:
        while pending and env.peek() >= pending[0][0]:
            at, fire = pending.popleft()
            env._now = max(env._now, at)
            fire()
        entry = env._pop()
        if entry is None:
            break
        event = entry[3]
        if event._is_timer:
            event._pop_shot(entry)
            continue
        env._now = entry[0]
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not event._defused:
            raise _unhandled(event)
    env.sanitizer.assert_clean()
    return log, env.now, env._eid + len(actions)


class TestEveryLaneMatchesTheFastLoop:
    @settings(max_examples=150, deadline=None)
    @given(program=st.lists(_ops, max_size=12))
    @example(program=EVERYTHING_AT_ONCE)
    def test_programs(self, program):
        want = run_lane("fast", program)
        for lane in LANES:
            assert run_lane(lane, program) == want, lane
        assert run_cursor(program) == want, "cursor"

    @pytest.mark.skipif(not compiled_lane_active(),
                        reason="compiled lane not selected "
                               "(REPRO_SIM_COMPILED=1 with the extension "
                               "built by tools/build_compiled.py)")
    @settings(max_examples=150, deadline=None)
    @given(program=st.lists(_ops, max_size=12))
    @example(program=EVERYTHING_AT_ONCE)
    def test_programs_on_the_compiled_loop(self, program):
        assert run_lane("compiled", program) == run_lane("fast", program)

    def test_the_fixed_program_exercises_every_feature(self):
        log, now, eid = run_lane("fast", EVERYTHING_AT_ONCE)
        kinds = {tag.split(":")[0] for _, tag in log}
        assert kinds >= {"timeout", "chain", "interrupted", "timer",
                         "anyof", "allof", "caught", "put", "got", "steer",
                         "twice"}
        assert now == 1.0 and eid > 0


#: The compiled loop joins when it is the selected lane.
EVERY_LANE = ("fast",) + LANES + (
    ("compiled",) if compiled_lane_active() else ())


class TestEventScheduledTwice:
    @pytest.mark.parametrize("lane", EVERY_LANE)
    @pytest.mark.parametrize("delay", [0.0, 0.5])
    def test_callbacks_run_once(self, lane, delay):
        log, now, eid = run_lane(lane, [("twice", delay)])
        assert log == [(0.0, "twice:0")]
        # Both entries were popped: the later one only moved the clock.
        assert (now, eid) == (delay, 2)
