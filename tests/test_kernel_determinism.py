"""Kernel determinism contract: the optimized two-lane scheduler must
process events in exactly the order the seed single-heap kernel did.

The fixture ``tests/data/kernel_event_order.json`` was serialized from
the pre-two-lane kernel running :func:`tests.kernel_workload
.run_mixed_workload` — a workload that stresses equal-time ties,
zero-delay chains, URGENT interrupts, wide/nested conditions, defused
failures, a bounded mailbox and a counted-slot table at once.  Any change to the kernel's
``(time, priority, eid)`` total order shows up here as a diff long
before it corrupts an experiment render.

Every surviving encoding of that order is held to both pinned fixtures:
the fast loop, the observed loop (profiler attached), a ``step()``
driver — all in-process — and the compiled lane in a subprocess (lane
selection is an import-time switch).  Each encoding must also end on the
pinned ``env._eid``: an event scheduled more or fewer times shifts every
later eid uniformly, which keeps every tie and so the ``(time, tag)``
log, but not the count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.sim import EmptySchedule, Environment
from repro.sim._compiled import compiled_lane_active

from .kernel_workload import BURST_FIXTURE, FIXTURE, run_mixed_workload, \
    run_burst_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The final ``env._eid`` of each fixture's workload: the number of
#: ``schedule()`` calls it makes.
FINAL_EID = {FIXTURE: 132, BURST_FIXTURE: 404}


def _pinned(path: str) -> list:
    with open(path) as fh:
        return [tuple(rec) for rec in json.load(fh)]


def test_mixed_workload_replays_seed_event_order():
    expected = _pinned(FIXTURE)
    got = run_mixed_workload()
    assert len(got) == len(expected), (
        f"event count drifted: {len(got)} != {len(expected)}")
    for i, (want, have) in enumerate(zip(expected, got)):
        assert tuple(have) == want, (
            f"divergence at record {i}: fixture {want!r} vs kernel {have!r}")


def test_mixed_workload_is_self_deterministic():
    """Two in-process runs must agree exactly (no hidden global state)."""
    assert run_mixed_workload() == run_mixed_workload()


# -- one order, every in-process encoding ---------------------------------

ENCODINGS = ("fast", "profiler", "step")


def _environment(encoding: str) -> Environment:
    """A sanitized environment that takes the named encoding."""
    return Environment(sanitize=True, profile=encoding == "profiler")


def _step_until_empty(env: Environment) -> None:
    try:
        while True:
            env.step()
    except EmptySchedule:
        pass


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("workload, fixture", [
    (run_mixed_workload, FIXTURE), (run_burst_workload, BURST_FIXTURE),
], ids=["mixed", "burst"])
def test_every_encoding_replays_pinned_fixture(workload, fixture, encoding):
    env = _environment(encoding)
    drive = _step_until_empty if encoding == "step" else Environment.run
    assert workload(env=env, drive=drive) == _pinned(fixture)
    assert env._eid == FINAL_EID[fixture]
    env.sanitizer.assert_clean()


# -- same-timestamp burst: one tick, every tie-breaking rule at once ------

def _run_in_lane(workload: str, compiled: bool,
                 sanitize: bool = False) -> tuple:
    """Replay a workload in a fresh interpreter on the chosen lane.

    Lane selection is an import-time switch, so cross-lane comparison
    needs a subprocess per lane; the log and the final ``env._eid`` come
    back as JSON on stdout.
    """
    env = dict(os.environ,  # simlint: disable=environ-read -- building a subprocess environment, not sim state
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               REPRO_SIM_COMPILED="1" if compiled else "0")
    call = (f"{workload}(sanitize=True, env=env)" if sanitize
            else f"{workload}(env=env)")
    code = (
        f"import json, sys\n"
        f"from tests.kernel_workload import {workload}\n"
        f"from repro.sim import Environment\n"
        f"from repro.sim._compiled import compiled_lane_active\n"
        f"env = Environment(sanitize={sanitize})\n"
        f"log = {call}\n"
        f"json.dump({{'compiled': compiled_lane_active(), "
        f"'log': log, 'eid': env._eid}}, sys.stdout)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["compiled"] is compiled, (
        "lane selection failed — is the extension built? "
        "(python tools/build_compiled.py)")
    return [tuple(rec) for rec in payload["log"]], payload["eid"]


def _compiled_lane_available() -> bool:
    if compiled_lane_active():
        return True
    import glob
    return bool(glob.glob(os.path.join(
        REPO_ROOT, "src", "repro", "sim", "_speedups*.so")))


needs_compiled = pytest.mark.skipif(
    not _compiled_lane_available(),
    reason="compiled lane not built (python tools/build_compiled.py)")


def test_burst_replays_pinned_fixture():
    """The in-process fast loop replays the pinned burst order."""
    assert run_burst_workload() == _pinned(BURST_FIXTURE)


def test_burst_is_sanitizer_clean():
    """The burst leaves no leaked processes/timers/events behind."""
    run_burst_workload(sanitize=True)  # assert_clean() raises on leaks


@needs_compiled
def test_burst_identical_across_lanes():
    """interpreted == compiled == in-process, record for record.

    Three replays of the same-timestamp burst: the in-process run (this
    process), a fresh interpreted subprocess, and a fresh
    REPRO_SIM_COMPILED=1 subprocess.  Any divergence in the
    (time, priority, eid) total order between the Python drain and the
    C drain shows up here as a log diff.
    """
    in_process = run_burst_workload(), FINAL_EID[BURST_FIXTURE]
    interpreted = _run_in_lane("run_burst_workload", compiled=False)
    compiled = _run_in_lane("run_burst_workload", compiled=True)
    assert interpreted == in_process
    assert compiled == in_process


@needs_compiled
def test_burst_compiled_lane_sanitizer_clean():
    """The C drain honors the sanitizer hooks too (no silent leaks)."""
    log, eid = _run_in_lane("run_burst_workload", compiled=True,
                            sanitize=True)
    assert log == run_burst_workload()
    assert eid == FINAL_EID[BURST_FIXTURE]


@needs_compiled
def test_mixed_workload_identical_across_lanes():
    """The PR-3 fixture workload also replays identically on the C lane."""
    compiled = _run_in_lane("run_mixed_workload", compiled=True)
    assert compiled == (run_mixed_workload(), FINAL_EID[FIXTURE])
