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
from .pingpong import PAPER_SEQUENCES, PAPER_SIZES, run_sequences
from .scale import (
    CampaignStats,
    ScaleConfig,
    iter_campaign,
    summarize_campaign,
)
from .traces import iter_trace, load_trace, save_trace, trace_header

__all__ = [
    "CampaignStats",
    "JobArrival",
    "LoopSample",
    "MixConfig",
    "PAPER_SEQUENCES",
    "PAPER_SIZES",
    "ScaleConfig",
    "cpu_bound_app",
    "cpu_hog",
    "generate_mix",
    "immediate_output_app",
    "interactive_console_app",
    "iter_campaign",
    "iter_mix",
    "iter_trace",
    "load_trace",
    "make_loop_app",
    "paced_submissions",
    "progress_app",
    "replay",
    "replay_stream",
    "run_sequences",
    "save_trace",
    "steerable_simulation",
    "summarize_campaign",
    "synthetic_job",
    "trace_header",
]
