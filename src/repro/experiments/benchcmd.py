"""The six kernel microbenchmark workloads (``WORKLOADS``).

Each workload drives one kernel pattern — timeout churn, process
chains, ``Store`` handoff, ``AnyOf`` fan-in, ``Timer`` re-arming and
zero-delay lanes — and returns nothing.  ``bench/workloads.py``'s
``kernel_micro`` workload is the one timing method for them; to time a
single workload by hand::

    python -m timeit -s 'from repro.experiments.benchcmd import WORKLOADS' \
        'WORKLOADS["event_throughput"]()'

.. simlint: the bench workloads *deliberately* allocate raw timeouts in
   tight loops — timeout churn is the pattern being measured (and the
   timer_churn bench compares it against the Timer replacement).
"""  # simlint: disable-file=raw-timeout-loop -- timeout churn IS the measured workload

from __future__ import annotations

from typing import Callable, Dict

from ..sim import AnyOf, Environment, Store, Timer


# -- workloads (bench/workloads.py's kernel_micro imports these) ---------

def _event_throughput() -> None:
    """Pure timeout churn: 20k events scheduled + processed."""
    env = Environment()

    def ticker():
        for _ in range(20_000):
            yield env.timeout(0.001)

    env.process(ticker())
    env.run()


def _process_chains() -> None:
    """Process spawn/wait chains (the broker's dominant pattern)."""
    env = Environment()

    def leaf():
        yield env.timeout(0.01)
        return 1

    def parent():
        total = 0
        for _ in range(2_000):
            total += yield env.process(leaf())
        return total

    env.process(parent())
    env.run()


def _store_pingpong() -> None:
    """Producer/consumer handoff through a Store."""
    env = Environment()
    a_to_b, b_to_a = Store(env), Store(env)

    def side_a():
        for i in range(5_000):
            yield a_to_b.put(i)
            yield b_to_a.get()

    def side_b():
        for _ in range(5_000):
            item = yield a_to_b.get()
            yield b_to_a.put(item)

    env.process(side_a())
    env.process(side_b())
    env.run()


def _fanin_anyof() -> None:
    """Wide AnyOf fan-in: the lazy-detach Condition path."""
    env = Environment()

    def waiter():
        for _ in range(50):
            events = [env.timeout(i + 1, value=i) for i in range(500)]
            yield AnyOf(env, events)

    env.process(waiter())
    env.run()


def _timer_churn() -> None:
    """Arm/cancel storms on one re-armable Timer (buffer-flush pattern)."""
    env = Environment()

    def churner():
        t = Timer(env)
        for i in range(20_000):
            t.arm(5.0)
            if i % 100 == 99:
                yield env.timeout(6.0)
            else:
                yield env.timeout(0.001)
                t.cancel()

    env.process(churner())
    env.run()


def _zero_delay_lanes() -> None:
    """Zero-delay succeed chains: pure deque-lane traffic, no heap."""
    env = Environment()

    def chain():
        for _ in range(20_000):
            ev = env.event()
            ev.succeed()
            yield ev

    env.process(chain())
    env.run()


WORKLOADS: Dict[str, Callable[[], None]] = {
    "event_throughput": _event_throughput,
    "process_chains": _process_chains,
    "store_pingpong": _store_pingpong,
    "fanin_anyof": _fanin_anyof,
    "timer_churn": _timer_churn,
    "zero_delay_lanes": _zero_delay_lanes,
}
