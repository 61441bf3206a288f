"""Tier-1 pin on how many events a world schedules.

The goldens hold what is *printed*; nothing else in tier-1 notices a change
that renders the same bytes through more (or fewer) kernel events, and
``bench/expected.json`` is only consulted when the benchmark runs.  This
pins ``env._eid`` — every event id the environment ever handed out — for
each cell of ``table1 --quick``, for every world of the experiments and
``repro serve`` runs that drive a broker through the shared paced feeder
or boot an agent in place, and for a small 2-site ``Scenario`` day.  The
same pass pins the ``count`` and ``total`` of the broker's stage-latency
histograms (:data:`STAGE_HISTOGRAMS`) for each environment of
``table1 --quick`` and ``broker-modes --quick``: the telemetry a job's
stage record feeds, held value for value.

The numbers depend on process history (ARCHITECTURE.md, "Known history
dependence"), so they are taken in a fresh interpreter.  A change that
means to move them regenerates both sets of pins with::

    PYTHONPATH=src python tests/test_event_budget.py

and says why in CHANGES.md.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``env._eid`` per environment, in construction (= plan) order.
EXPECTED = {
    "table1_quick": [2327, 8270, 3525, 10989, 2807, 8619, 3595, 11375],
    "broker_modes_quick": [2604, 2142, 2599, 1504, 2104, 1599,
                           1710, 1760, 1692, 5209, 3105, 5331],
    "chaos_drill_quick": [1878, 1750, 1640, 2316],
    "fig8_quick": [831, 845, 880, 916],
    "ablation_pl_quick": [852, 859, 880, 916, 1001],
    "ablation_degree_quick": [353, 680, 997],
    "serve_europe_chaos": [4369],
    "serve_campus_gap01": [3191],
    "scenario_2site": [23517],
}

#: ``[count, total]`` of each stage histogram a broker recorded, per
#: environment, in construction order (an environment without a broker
#: records none).
STAGES = {
    "table1_quick": [
        {},
        {"broker.match_latency.mds": [8, 32.02699162912172]},
        {"broker.match_latency.mds": [1, 3.9647398647507215],
         "broker.match_latency.registry": [8, 0.4076646430478519]},
        {"broker.match_latency.mds": [8, 32.863288142869166]},
        {},
        {"broker.match_latency.mds": [8, 31.992223993864513]},
        {"broker.match_latency.mds": [1, 3.9647398647507215],
         "broker.match_latency.registry": [8, 0.4076646430478519]},
        {"broker.match_latency.mds": [8, 32.915511497567216]},
    ],
    "broker_modes_quick": [
        {"broker.data.staging": [10, 92.64891295520648],
         "broker.match_latency.mds": [10, 16.932944856626783]},
        {"broker.data.staging": [10, 59.61992709764525],
         "broker.match_latency.pull": [10, 0.30930326223371796]},
        {"broker.data.staging": [10, 31.404488591059867],
         "broker.match_latency.mds": [10, 18.04439085976016]},
        {"broker.match_latency.mds": [10, 4.55329361844362]},
        {"broker.match_latency.pull": [10, 0.3293802360845223]},
        {"broker.match_latency.mds": [10, 4.405441191245661]},
        {"broker.match_latency.mds": [10, 17.046898976242367]},
        {"broker.match_latency.pull": [10, 128.4949822534727]},
        {"broker.match_latency.mds": [10, 16.678671395013914]},
        {"broker.match_latency.mds": [10, 32.8236689009495]},
        {"broker.match_latency.pull": [10, 0.011588125520672572]},
        {"broker.match_latency.mds": [10, 32.77766858041846]},
    ],
}

#: The broker's per-stage latency histograms.
STAGE_HISTOGRAMS = ("broker.match_latency.mds",
                    "broker.match_latency.registry",
                    "broker.match_latency.pull", "broker.data.staging")

#: Experiments pinned beside ``table1``: every driver of the one paced
#: feeder and every caller of the in-place agent boot.
EXPERIMENTS = ("table1", "broker-modes", "chaos-drill", "fig8",
               "ablation-pl", "ablation-degree")

CHAOS = Path(__file__).resolve().parent / "data" / "chaos" / "drain_burst.json"

#: ``repro serve`` worlds.  ``--gap 0.1`` is not a dyadic
#: float: a feeder that re-derived delays from arrival times
#: (``at - t_prev``) would move this count.
SERVE = {
    "serve_europe_chaos": ["europe", "--chaos", str(CHAOS)],
    "serve_campus_gap01": ["campus", "--gap", "0.1"],
}


def scenario_day():
    """A small loaded world outside the runner: 2 europe sites, twenty
    simulated minutes of mixed arrivals, one hour of drain."""
    from repro import Scenario
    from repro.jdl import JobCategory
    from repro.sim import RandomStreams
    from repro.workloads import (MixConfig, cpu_bound_app, generate_mix,
                                 immediate_output_app, replay)

    handle = Scenario(sites=2, scenario="europe", nodes_per_site=2,
                      seed=7).build()
    arrivals = generate_mix(RandomStreams(7), MixConfig(
        horizon=1200.0, batch_interarrival=70.0,
        interactive_interarrival=30.0, shared_fraction=0.6))
    env, broker = handle.testbed.env, handle.broker

    def behavior_for(arrival, rank):
        if arrival.job.category is JobCategory.BATCH:
            return cpu_bound_app(arrival.runtime)
        return immediate_output_app(run_for=arrival.runtime)

    submitted, feeder = replay(env, broker, arrivals, behavior_for)
    env.run(until=feeder)
    env.run(until=env.now + 3600.0)  # drain
    assert any(s.report.success for s in submitted)


def stage_totals(telemetry):
    return {name: [h.sketch.count, h.sketch.total]
            for name, h in sorted(telemetry.histograms.items())
            if name in STAGE_HISTOGRAMS}


def count_events():
    import contextlib
    import io

    from repro.experiments.servecmd import serve_main
    from repro.obs import telemetry_scope
    from repro.runner import run_experiment

    def measure(run):
        # series=False: only the counts and histograms are read.
        with telemetry_scope(series=False) as built:
            run()
        return ([t.env._eid for t in built],
                [stage_totals(t) for t in built])

    counts, stages = {}, {}
    for name in EXPERIMENTS:
        key = f"{name.replace('-', '_')}_quick"
        counts[key], totals = measure(
            lambda: run_experiment(name, quick=True))
        if key in STAGES:
            stages[key] = totals
    for name, argv in SERVE.items():
        with contextlib.redirect_stdout(io.StringIO()):
            counts[name], _ = measure(lambda: serve_main(argv))
    counts["scenario_2site"], _ = measure(scenario_day)
    return {"events": counts, "stages": stages}


@functools.lru_cache(maxsize=None)
def measured():
    # The environment is inherited, so a REPRO_SIM_COMPILED=1 tier-1 run
    # holds the compiled lane to the same pins.
    env = dict(os.environ, PYTHONPATH=str(SRC))  # simlint: disable=environ-read -- building a subprocess environment, not sim state
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out)


def test_event_counts_are_pinned():
    assert measured()["events"] == EXPECTED


def test_stage_telemetry_is_pinned():
    assert measured()["stages"] == STAGES


if __name__ == "__main__":
    print(json.dumps(count_events(), indent=4))
