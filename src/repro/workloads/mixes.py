"""Synthetic job-mix generators for integration tests and fair-share runs.

The paper's testbed served a mix of long batch jobs and short interactive
sessions from many users; these generators produce that mix with seeded
Poisson arrivals, so scheduler-level scenarios (saturation, priority
penalties, agent reuse) are reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..jdl import JobDescription, JobCategory, JobFlavor, MachineAccess, StreamingMode
from ..sim import RandomStreams


@dataclass(frozen=True)
class JobArrival:
    """One generated submission."""

    at: float
    job: JobDescription
    #: Suggested runtime for the behavior attached to this job.
    runtime: float


@dataclass
class MixConfig:
    """Shape of a generated workload."""

    users: Sequence[str] = ("alice", "bob", "carol", "dave")
    horizon: float = 3600.0
    #: Mean inter-arrival of batch jobs (Poisson).
    batch_interarrival: float = 300.0
    #: Mean inter-arrival of interactive jobs.
    interactive_interarrival: float = 240.0
    #: Fraction of interactive jobs asking for shared access.
    shared_fraction: float = 0.7
    batch_runtime_mean: float = 1800.0
    interactive_runtime_mean: float = 120.0
    performance_losses: Sequence[int] = (10, 25)
    parallel_fraction: float = 0.0
    max_nodes: int = 4


def _iter_batch(rng: RandomStreams, config: MixConfig,
                stream: str) -> Iterator[JobArrival]:
    """The lazy batch-job arrival stream (time-ordered)."""
    t, i = 0.0, 0
    while True:
        t += rng.exponential(f"{stream}/batch/gap", config.batch_interarrival)
        if t >= config.horizon:
            return
        runtime = max(rng.exponential(f"{stream}/batch/run",
                                      config.batch_runtime_mean), 60.0)
        job = JobDescription(
            executable="batch_sim",
            owner=rng.choice(f"{stream}/batch/user/{i}", list(config.users)),
            category=JobCategory.BATCH,
            estimated_runtime=runtime,
            # Deterministic id: job ids key RNG streams downstream, so the
            # same mix must replay identically run after run.
            job_id=f"{stream}-batch-{i:05d}",
        )
        yield JobArrival(t, job, runtime)
        i += 1


def _iter_interactive(rng: RandomStreams, config: MixConfig,
                      stream: str) -> Iterator[JobArrival]:
    """The lazy interactive-session arrival stream (time-ordered)."""
    t, i = 0.0, 0
    while True:
        t += rng.exponential(f"{stream}/int/gap",
                             config.interactive_interarrival)
        if t >= config.horizon:
            return
        runtime = max(rng.exponential(f"{stream}/int/run",
                                      config.interactive_runtime_mean), 10.0)
        shared = rng.uniform(f"{stream}/int/shared/{i}", 0, 1) \
            < config.shared_fraction
        # A uniform draw on [0, 1) is never below a non-positive fraction,
        # so the per-arrival stream is opened only when it can matter.
        parallel = config.parallel_fraction > 0 and rng.uniform(
            f"{stream}/int/par/{i}", 0, 1) < config.parallel_fraction
        nodes = 1
        flavor = JobFlavor.SEQUENTIAL
        if parallel and config.max_nodes > 1:
            nodes = int(rng.uniform(f"{stream}/int/nodes/{i}", 2,
                                    config.max_nodes + 1))
            flavor = JobFlavor.MPICH_G2
        pl = rng.choice(f"{stream}/int/pl/{i}",
                        list(config.performance_losses)) if shared else 0
        job = JobDescription(
            executable="interactive_sim",
            owner=rng.choice(f"{stream}/int/user/{i}", list(config.users)),
            category=JobCategory.INTERACTIVE,
            flavor=flavor,
            node_number=nodes,
            machine_access=MachineAccess.SHARED if shared
            else MachineAccess.EXCLUSIVE,
            performance_loss=pl,
            streaming_mode=StreamingMode.FAST,
            estimated_runtime=runtime,
            job_id=f"{stream}-int-{i:05d}",
        )
        yield JobArrival(t, job, runtime)
        i += 1


def iter_mix(rng: RandomStreams, config: Optional[MixConfig] = None,
             stream: str = "mix") -> Iterator[JobArrival]:
    """Lazily generate the job mix in arrival-time order.

    Identical arrivals to :func:`generate_mix` (every draw comes from
    the same named substream, and named substreams are independent of
    draw interleaving), but the mix never materialises: the two class
    streams are merged on the fly, so memory stays O(1) in the horizon.
    Ties keep batch-before-interactive order, matching the stable sort
    :func:`generate_mix` historically applied.
    """
    config = config or MixConfig()
    return heapq.merge(_iter_batch(rng, config, stream),
                       _iter_interactive(rng, config, stream),
                       key=lambda a: a.at)


def generate_mix(rng: RandomStreams, config: Optional[MixConfig] = None,
                 stream: str = "mix") -> List[JobArrival]:
    """Deterministically generate a job mix, sorted by arrival time."""
    return list(iter_mix(rng, config, stream))


def synthetic_job(job_id: str, owner: str, runtime: float, executable: str,
                  interactive: bool = True, **attributes) -> JobDescription:
    """The one builder of driver and chaos load: a sequential job with
    a pinned id — the matchmaker's tie-break stream is keyed by job id
    and the process-global id counter is not cross-process deterministic.
    ``attributes`` are further JDL attributes (``machineaccess``, ...).
    """
    return JobDescription.from_attributes({
        "executable": executable,
        "jobtype": ["interactive", "sequential"] if interactive
        else ["sequential"],
        "estimatedruntime": float(runtime),
        **attributes,
    }, owner=owner).clone(job_id=job_id)


def paced_submissions(env, delayed: Iterable[Tuple[float, Any]],
                      submit: Callable[[Any], Any],
                      timer_name: str = "mix/feeder/pace"):
    """The one paced-submission loop, as a generator (wrap it in a
    process, or reach it with ``yield from`` from a driver process).

    For each ``(delay, item)`` of ``delayed``: wait ``delay`` sim-seconds
    on one re-armable timer — not armed for a non-positive delay, so
    nothing follows the last item; armed as given, never re-derived from
    absolute times — then ``submit(item)``.  Returns the item count.
    """
    pace = env.timer(name=timer_name)
    submitted = 0
    for delay, item in delayed:
        if delay > 0:
            yield pace.arm(delay)
        submit(item)
        submitted += 1
    return submitted


def replay_stream(env, broker, arrivals: Iterable[JobArrival], behavior_for,
                  ui_host: str = "ui", on_submit=None):
    """Submit an arrival stream against a broker without retaining it.

    The streaming twin of :func:`replay`: ``arrivals`` may be any
    iterable (a list or :func:`iter_mix`) and is consumed one arrival at
    a time.  Each submission record is handed to
    ``on_submit(record, arrival)`` (when given) and then dropped, so a
    million-job replay holds O(1) arrival state.  Returns the feeder
    process; its value is the submit count.
    """

    def delayed():
        t_prev = 0.0
        for arrival in arrivals:
            yield arrival.at - t_prev, arrival
            t_prev = arrival.at

    def submit(arrival):
        record = broker.submit(
            arrival.job, lambda rank: behavior_for(arrival, rank),
            ui_host=ui_host, attach_console=arrival.job.is_interactive)
        if on_submit is not None:
            on_submit(record, arrival)

    return env.process(paced_submissions(env, delayed(), submit),
                       name="mix/feeder")


def replay(env, broker, arrivals: Iterable[JobArrival], behavior_for,
           ui_host: str = "ui"):
    """Submit a generated mix against a broker as a simulation process.

    ``behavior_for(arrival, rank) -> Behavior`` builds each job's payload.
    Returns the list of SubmittedJob records (grown as the feeder runs;
    for unbounded streams use :func:`replay_stream` instead).
    """
    submitted = []
    proc = replay_stream(env, broker, arrivals, behavior_for,
                         ui_host=ui_host,
                         on_submit=lambda record, _a: submitted.append(record))
    return submitted, proc
