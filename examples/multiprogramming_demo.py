#!/usr/bin/env python
"""Multiprogramming demo: interactive fast-startup on a busy grid.

Reproduces the paper's Figure 5 story end-to-end: a batch job fills the
only machine (planting a glide-in agent on the way in); an interactive
job then starts *immediately* on the agent's interactive VM instead of
waiting hours, slowing the batch job by exactly its PerformanceLoss; the
batch job's owner is billed the cheap displaced-batch application factor
while sharing.

Run:  python examples/multiprogramming_demo.py
"""

from repro import Scenario
from repro.core import SubmissionPath
from repro.jdl import JobDescription
from repro.workloads import cpu_bound_app, progress_app


def main() -> None:
    # ONE machine in the grid.
    handle = Scenario(sites=1, scenario="campus", nodes_per_site=1,
                      seed=3, trace=True).build()
    env = handle.env
    broker = handle.broker

    batch = JobDescription.from_jdl('Executable = "hours_of_physics";',
                                    owner="bob")
    batch_submitted = broker.submit(batch, lambda r: cpu_bound_app(600.0))
    env.run(until=batch_submitted.started)
    print(f"[{env.now:7.2f}s] batch job started on "
          f"{batch_submitted.report.sites} "
          f"(path {batch_submitted.report.path.value})")
    print(f"          grid is now fully busy; "
          f"free interactive VMs: {len(broker.agents.free_interactive())}")

    interactive = JobDescription.from_jdl(
        """
        Executable      = "steering_frontend";
        JobType         = {"interactive", "sequential"};
        MachineAccess   = "shared";
        PerformanceLoss = 25;
        StreamingMode   = "fast";
        """,
        owner="alice")
    inter_submitted = broker.submit(interactive,
                                    lambda r: progress_app(5, 2.0))
    env.run(until=inter_submitted.finished)

    rep = inter_submitted.report
    assert rep.path is SubmissionPath.INTERACTIVE_SHARED_VM
    print(f"[{env.now:7.2f}s] interactive job done; "
          f"submission took {rep.submission_time:.2f} s "
          f"(no Globus, no local queue!)")
    print(f"          priorities: "
          f"alice={broker.fairshare.priority('alice'):.4f} "
          f"bob={broker.fairshare.priority('bob'):.4f}")

    env.run(until=batch_submitted.finished)
    print(f"[{env.now:7.2f}s] batch job finished "
          f"(delayed by the interactive guest's 25% share)")
    env.run(until=env.now + 10)
    print(f"          agents left on the machine: "
          f"{len(broker.agents.live_agents())} (agent leaves after the "
          f"batch job completes)")

    from repro.metrics import render_timeline

    print()
    print(render_timeline(handle.tracer))


if __name__ == "__main__":
    main()
