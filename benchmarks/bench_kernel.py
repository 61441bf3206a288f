"""Microbenchmarks of the substrate itself (real pytest-benchmark rounds).

These do not reproduce paper results; they track the simulator's own
throughput so regressions in the kernel/network layers are visible.
"""

import pytest

from repro import Scenario
from repro.experiments.benchcmd import WORKLOADS
from repro.net import Listener, Network, connect
from repro.sim import Environment, RandomStreams


@pytest.mark.parametrize("name", WORKLOADS)
def test_bench_kernel_workload(benchmark, name):
    """The six ``repro bench`` kernel workloads (one registry, two
    front-ends: ``experiments/benchcmd.py::WORKLOADS`` owns the bodies)."""
    benchmark(WORKLOADS[name])


def test_bench_network_messages(benchmark):
    """Connection send/recv round trips through the routed fabric."""

    def run():
        env = Environment()
        net = Network(env, RandomStreams(1))
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", latency=0.0001, bandwidth=1e9)
        listener = Listener(net, net.host("b"), 1)

        def server():
            conn = yield from listener.accept()
            for _ in range(2_000):
                msg = yield from conn.recv()
                yield from conn.send(msg, 64)

        def client():
            conn = yield from connect(net, "a", "b", 1)
            for i in range(2_000):
                yield from conn.send(i, 64)
                yield from conn.recv()

        env.process(server())
        proc = env.process(client())
        env.run(until=proc)
        return True

    assert benchmark(run)


def test_bench_broker_submission(benchmark):
    """End-to-end broker submissions per second (quick path)."""

    def run():
        from repro.core import CrossBroker
        from repro.jdl import JobDescription
        from repro.workloads import immediate_output_app

        tb = Scenario(sites=1, scenario="campus", nodes_per_site=4, seed=1,
                      publish=False).build().testbed
        tb.publish_all_now()
        broker = CrossBroker(tb.env, tb.network, tb.rng, tb.calibration)
        for i in range(5):
            job = JobDescription.from_attributes({
                "executable": "x",
                "jobtype": ["interactive", "sequential"],
                "streamingmode": "fast",
            }, owner=f"u{i}")
            submitted = broker.submit(job,
                                      lambda r: immediate_output_app(
                                          run_for=0.1))
            tb.env.run(until=submitted.finished)
        return len(broker.reports)

    assert benchmark(run) == 5
