"""Tier-1 pin on how much cyclic garbage a world leaves behind.

The message path makes no reference cycles (ARCHITECTURE.md, "Memory
lifetime"): a connection and its inboxes are freed by reference count
the moment both ends are closed.  Nothing else in tier-1 notices a change
that renders the same bytes through the same events but leaves every
connection for the collector — and with the collector paused for the
extent of a run, that garbage is held until the run returns.  So, for
every experiment of ``repro run all --quick``, for ``broker-modes`` and
``chaos-drill``, and for a small 2-site ``Scenario`` day, this runs the
experiment once with the collector off and every ``Environment`` it
builds held alive (the live world is not garbage), collects under
``gc.DEBUG_SAVEALL`` and counts what only a collection could free:

* ``message_path`` — ``ConnectionEnd``, ``Store`` and ``Listener``
  instances;
* ``repro`` — instances of any class this repo defines;
* ``objects`` — everything, interpreter-owned objects (frames,
  tracebacks, cells, lists) included: compared only on the CPython minor
  the goldens are pinned to, since what the interpreter tracks is its
  own business.

Success paths leave nothing.  What is left is the failure path, about
30 objects per refused job: the exception stored on a job's ``finished``
event keeps its traceback, whose frames point back at the job and its
``SubmissionReport`` (fair-share rejections, "no idle machine",
chaos-injected outages).  The broker keeps no list of reports, so a
refused job's report is part of that garbage, and an unreachable
broker's finished reports are not.  The
two non-zero ``message_path`` rows are of that kind, not closed
connections waiting for a collector: ``broker-modes`` counts each pull
broker's own RPC listener and backlog (the broker is unreachable once
``drain()`` returns, with the environment still alive) and two client
ends held by the tracebacks of site agents that died with the broker;
``chaos-drill`` counts one end held by a failed GRAM call's traceback
and the connection ``MdsPublisher`` abandons *open* when it reconnects
after the injected outage (ROADMAP 3e).

Like the event counts, these depend on process history, so they are
taken in a fresh interpreter.  A change that means to move them
regenerates the pins with::

    PYTHONPATH=src python tests/test_gc_budget.py

and says why in CHANGES.md.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The CPython minor ``objects`` is pinned on (CI's golden jobs use it).
PINNED_PYTHON = (3, 11)

#: Per experiment: [message_path, repro, objects].
EXPECTED = {
    "table1": [0, 0, 0],
    "fig6": [0, 0, 0],
    "fig7": [0, 0, 0],
    "fig8": [0, 0, 0],
    "selection-scaling": [0, 0, 0],
    "fairshare-saturation": [0, 28, 86],
    "ablation-buffer": [0, 0, 0],
    "ablation-retry": [0, 0, 0],
    "ablation-pl": [0, 0, 0],
    "ablation-degree": [0, 0, 0],
    "ablation-halflife": [0, 0, 0],
    "broker-modes": [12, 464, 1125],
    "chaos-drill": [6, 292, 735],
    "scenario_2site": [0, 264, 768],
}


def garbage_of(run):
    """[message_path, repro, objects] left by ``run()`` (see module doc)."""
    from repro.net.sockets import ConnectionEnd, Listener
    from repro.sim import Environment, Store

    held = []
    # A factory that installs nothing: telemetry stays off, the hook
    # only sees every environment as it is built.
    Environment.telemetry_factory = staticmethod(held.append)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        Environment.telemetry_factory = None
    assert held, "the run built no environment"
    counts = [
        sum(isinstance(o, (ConnectionEnd, Store, Listener)) for o in found),
        sum(type(o).__module__.startswith("repro.") for o in found),
        len(found)]
    del found, held
    gc.collect()  # SAVEALL is off again: this frees what was counted
    return counts


def count_garbage():
    from test_event_budget import scenario_day  # script mode: tests/ on path

    from repro.experiments.cli import CANONICAL_ORDER
    from repro.runner import run_experiment

    gc.disable()  # collections happen where garbage_of asks, nowhere else
    counts = {}
    for experiment_id in CANONICAL_ORDER + ["broker-modes", "chaos-drill"]:
        counts[experiment_id] = garbage_of(
            lambda: run_experiment(experiment_id, quick=True))
    counts["scenario_2site"] = garbage_of(scenario_day)
    return counts


def test_garbage_is_pinned():
    # The environment is inherited, so a REPRO_SIM_COMPILED=1 tier-1 run
    # holds the compiled lane to the same pins.
    env = dict(os.environ, PYTHONPATH=str(SRC))  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    found = json.loads(out)
    assert sorted(found) == sorted(EXPECTED)
    exact = 3 if sys.version_info[:2] == PINNED_PYTHON else 2
    assert {k: v[:exact] for k, v in found.items()} \
        == {k: v[:exact] for k, v in EXPECTED.items()}


if __name__ == "__main__":
    print("{\n" + ",\n".join(
        f"    {json.dumps(k)}: {json.dumps(v)}"
        for k, v in count_garbage().items()) + "\n}")
