"""Workload generators and the paper's measurement applications."""

from .apps import (
    cpu_bound_app,
    immediate_output_app,
    interactive_console_app,
    progress_app,
    steerable_simulation,
)
from .loopapp import LoopSample, cpu_hog, make_loop_app
from .mixes import (
    JobArrival,
    MixConfig,
    generate_mix,
    iter_mix,
    paced_submissions,
    replay,
    replay_stream,
    synthetic_job,
)
from .pingpong import run_sequences

__all__ = [
    "JobArrival",
    "LoopSample",
    "MixConfig",
    "cpu_bound_app",
    "cpu_hog",
    "generate_mix",
    "immediate_output_app",
    "interactive_console_app",
    "iter_mix",
    "make_loop_app",
    "paced_submissions",
    "progress_app",
    "replay",
    "replay_stream",
    "run_sequences",
    "steerable_simulation",
    "synthetic_job",
]
