"""A mixed kernel workload whose processing order is pinned by a fixture.

The workload exercises every scheduling feature of the kernel at once —
timed events with equal-time ties, zero-delay succeed chains, URGENT
interrupts, wide and nested conditions (including pre-triggered members
and defused failures), processes waiting on processes, stores and
resources — and records a line for every observable step.

``python -m tests.kernel_workload`` regenerates the golden fixture
(``tests/data/kernel_event_order.json``).  The fixture committed in this
repository was produced by the *seed* (pre-two-lane) kernel; the
regression test asserts the optimized kernel replays it exactly, which
is the determinism contract of the two-lane scheduler: identical
``(time, priority, eid)`` total order for identical ``schedule()``
traffic.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Tuple

from repro.sim import (
    AnyOf,
    Environment,
    Interrupt,
    RandomStreams,
    Resource,
    Store,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "kernel_event_order.json")
BURST_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                             "kernel_burst_order.json")


def run_mixed_workload(env: Optional[Environment] = None,
                       drive: Callable[[Environment], object] = Environment.run
                       ) -> List[Tuple[float, str]]:
    """Run the workload; return the ordered (time, tag) processing log.

    ``env`` and ``drive`` select the kernel encoding under test: an
    environment with hooks attached takes the observed loop, and a
    ``drive`` other than ``Environment.run`` (e.g. a ``step()`` loop)
    replaces the run call.
    """
    if env is None:
        env = Environment()
    rng = RandomStreams(20060906)
    log: List[Tuple[float, str]] = []

    def note(tag: str) -> None:
        log.append((round(env.now, 9), tag))

    # -- 1. timeout ties: many events at identical times ----------------
    def ticker(name: str, period: float, count: int):
        for i in range(count):
            yield env.timeout(period)
            note(f"tick:{name}:{i}")

    for name, period in [("a", 0.5), ("b", 0.25), ("c", 0.5)]:
        env.process(ticker(name, period, 8), name=f"ticker-{name}")

    # -- 2. zero-delay succeed chains (the FIFO-lane traffic) ------------
    def chain(depth: int):
        for i in range(depth):
            ev = env.event()
            ev.succeed(i)
            got = yield ev
            note(f"chain:{got}")

    env.process(chain(6), name="chain")

    # -- 3. store ping-pong with a jittered producer ---------------------
    box: Store = Store(env, capacity=2)

    def producer():
        stream = rng.stream("producer")
        for i in range(6):
            yield env.timeout(stream.uniform(0.05, 0.3))
            yield box.put(i)
            note(f"put:{i}")

    def consumer():
        for _ in range(6):
            item = yield box.get()
            note(f"got:{item}")
            yield env.timeout(0.1)

    env.process(producer(), name="producer")
    env.process(consumer(), name="consumer")

    # -- 4. resource contention ------------------------------------------
    cpu = Resource(env, capacity=2)

    def worker(i: int):
        with cpu.request() as req:
            yield req
            note(f"acquire:{i}")
            yield env.timeout(0.2 + 0.01 * i)
        note(f"release:{i}")

    for i in range(5):
        env.process(worker(i), name=f"worker-{i}")

    # -- 5. conditions: wide AnyOf with pre-triggered winner + late
    #       losers, AllOf fan-in, nested combinators ----------------------
    early = env.event()
    early.succeed("early")
    losers = [env.timeout(1.0 + 0.1 * i, f"l{i}") for i in range(4)]

    def any_waiter():
        result = yield AnyOf(env, [early] + losers)
        note(f"anyof:{len(result)}")

    env.process(any_waiter(), name="any-waiter")

    def all_waiter():
        t1, t2 = env.timeout(0.7, "x"), env.timeout(0.7, "y")
        result = yield (t1 & t2) | env.timeout(5.0)
        note(f"allof:{','.join(str(v) for v in result.values())}")

    env.process(all_waiter(), name="all-waiter")

    # -- 6. failure handled inside a process ------------------------------
    def failing_child():
        yield env.timeout(0.33)
        raise ValueError("expected-failure")

    def guardian():
        child = env.process(failing_child(), name="failing-child")
        try:
            yield child
        except ValueError as exc:
            note(f"caught:{exc}")

    env.process(guardian(), name="guardian")

    # -- 7. URGENT interrupts ---------------------------------------------
    def sleeper():
        try:
            yield env.timeout(10.0)
            note("sleeper:overslept")
        except Interrupt as intr:
            note(f"interrupted:{intr.cause}")

    victim = env.process(sleeper(), name="sleeper")

    def interrupter():
        yield env.timeout(1.25)
        victim.interrupt(cause="wakeup")

    env.process(interrupter(), name="interrupter")

    # -- 8. process waiting on process ------------------------------------
    def leaf(n: int):
        yield env.timeout(0.05 * n)
        return n * n

    def parent():
        total = 0
        for n in range(4):
            total += yield env.process(leaf(n), name=f"leaf-{n}")
        note(f"parent:{total}")

    env.process(parent(), name="parent")

    drive(env)
    note("end")
    return log


def run_burst_workload(sanitize: bool = False,
                       env: Optional[Environment] = None,
                       drive: Callable[[Environment], object] = Environment.run
                       ) -> List[Tuple[float, str]]:
    """Same-timestamp burst: hundreds of events landing on one tick.

    This is the worst case for three-head selection *and* for the
    compiled lane's C heap: every discriminating feature of the total
    order except time itself — FIFO eid ties, URGENT vs NORMAL at one
    instant, timers firing into the tie, zero-delay chains spawned from
    inside the burst — has to resolve identically on every encoding
    (``env``/``drive`` as in :func:`run_mixed_workload`).
    """
    if env is None:
        env = Environment(sanitize=sanitize)
    log: List[Tuple[float, str]] = []

    def note(tag: str) -> None:
        log.append((round(env.now, 9), tag))

    # 120 timeouts all expiring at t=1.0, scheduled in shuffled eid order.
    order = list(range(120))
    shuffle = RandomStreams(77).stream("burst/shuffle")
    shuffle.shuffle(order)

    def tied(i: int):
        yield env.timeout(1.0)
        note(f"tied:{i}")
        # Every 10th tie spawns a zero-delay chain *inside* the burst:
        # those run at t=1.0 too, interleaved by eid with later ties.
        if i % 10 == 0:
            for j in range(3):
                ev = env.event()
                ev.succeed(j)
                got = yield ev
                note(f"tied-chain:{i}:{got}")

    for i in order:
        env.process(tied(i), name=f"tied-{i}")

    # A Timer armed to fire exactly at the burst tick.
    from repro.sim import Timer

    t = Timer(env, callback=lambda _t: note("timer:burst"))
    t.arm(1.0)

    # An URGENT interrupt landing mid-burst: the interrupter also wakes
    # at t=1.0, and its interrupt must preempt the remaining NORMAL ties.
    def sleeper():
        try:
            yield env.timeout(5.0)
            note("sleeper:overslept")
        except Interrupt as intr:
            note(f"interrupted:{intr.cause}")

    victim = env.process(sleeper(), name="burst-sleeper")

    def interrupter():
        yield env.timeout(1.0)
        note("interrupter:awake")
        victim.interrupt(cause="mid-burst")

    env.process(interrupter(), name="burst-interrupter")

    drive(env)
    note("end")
    if sanitize:
        env.sanitizer.assert_clean()
    return log


def main() -> None:
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    log = run_mixed_workload()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=0)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(log)} records)")
    burst = run_burst_workload()
    with open(BURST_FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(burst, fh, indent=0)
        fh.write("\n")
    print(f"wrote {BURST_FIXTURE} ({len(burst)} records)")


if __name__ == "__main__":
    main()
