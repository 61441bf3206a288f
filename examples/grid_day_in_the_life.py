#!/usr/bin/env python
"""A day in the life of the grid: replay a multi-user workload mix.

Generates a synthetic batch+interactive job stream (several users, Poisson
arrivals), replays it against the CrossBroker on a 4-site Europe testbed,
and prints the per-job timeline plus summary statistics — the paper's
production-testbed situation in miniature.

Run:  python examples/grid_day_in_the_life.py
"""

from collections import Counter

from repro import Scenario
from repro.jdl import JobCategory
from repro.metrics import Series, render_timeline
from repro.sim import RandomStreams
from repro.workloads import (
    MixConfig,
    cpu_bound_app,
    generate_mix,
    immediate_output_app,
    replay,
)


def main() -> None:
    handle = Scenario(sites=4, scenario="europe", nodes_per_site=3,
                      seed=2026, trace=True).build()
    testbed = handle.testbed
    broker = handle.broker

    config = MixConfig(horizon=2400.0, batch_interarrival=350.0,
                       interactive_interarrival=200.0,
                       batch_runtime_mean=700.0,
                       interactive_runtime_mean=80.0,
                       shared_fraction=0.6)
    arrivals = generate_mix(RandomStreams(2026), config)
    print(f"generated {len(arrivals)} jobs over {config.horizon/60:.0f} "
          f"simulated minutes "
          f"({sum(a.job.is_interactive for a in arrivals)} interactive)")

    def behavior_for(arrival, rank):
        if arrival.job.category is JobCategory.BATCH:
            return cpu_bound_app(arrival.runtime)
        return immediate_output_app(run_for=arrival.runtime)

    submitted, feeder = replay(testbed.env, broker, arrivals, behavior_for)
    testbed.env.run(until=feeder)
    # Drain the tail.
    deadline = testbed.env.now + 3 * 3600
    while testbed.env.now < deadline and any(
            not s.finished.triggered and s.report.error is None
            and not s.report.rejected for s in submitted):
        testbed.env.run(until=testbed.env.now + 120)

    print()
    print(render_timeline(handle.tracer, width=76, max_jobs=24))

    paths = Counter(s.report.path.value for s in submitted if s.report.path)
    print("\nsubmission paths taken:")
    for path, count in paths.most_common():
        print(f"  {path:<32} {count}")

    interactive = [s for s in submitted
                   if s.job.is_interactive and s.report.success
                   and s.report.response_time > 0]
    if interactive:
        responses = Series.of("resp",
                              [s.report.response_time for s in interactive])
        print(f"\ninteractive response times: mean {responses.mean:.1f}s "
              f"std {responses.std:.1f}s over {len(interactive)} jobs")
        shared = [s.report.submission_time for s in interactive
                  if s.report.path and "shared-vm" in s.report.path.value]
        exclusive = [s.report.submission_time for s in interactive
                     if s.report.path and "exclusive" in s.report.path.value]
        if shared and exclusive:
            print(f"  shared-VM submissions   : mean "
                  f"{Series.of('s', shared).mean:.1f}s")
            print(f"  exclusive submissions   : mean "
                  f"{Series.of('e', exclusive).mean:.1f}s "
                  f"(the Table I gap, live)")
    print(f"\nfair-share priorities at close: " + ", ".join(
        f"{user}={broker.fairshare.priority(user):.3f}"
        for user in sorted(broker.fairshare.users())))


if __name__ == "__main__":
    main()
