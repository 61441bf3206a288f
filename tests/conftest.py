"""Shared test helpers."""

from __future__ import annotations

import gc

import pytest

from repro.sim import Environment, RandomStreams


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test once with the cyclic collector on and once with the
    caller having turned it off; yields which.  Restores what it found."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def collections_started():
    """``gc.callbacks`` probe: one generation number appended per
    collection that *starts* while the test runs."""
    started = []

    def probe(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(probe)
    yield started
    gc.callbacks.remove(probe)


def run_proc(env: Environment, generator, name=None):
    """Start a process and run the simulation until it finishes."""
    proc = env.process(generator, name=name)
    env.run(until=proc)
    return proc.value
