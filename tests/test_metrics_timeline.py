"""Unit tests for the trace timeline renderer."""

from types import SimpleNamespace

import pytest

from repro.metrics import render_timeline
from repro.obs import Tracer


class ClockedTracer(Tracer):
    """A tracer on a bare clock, so records can be stamped at will."""

    def __init__(self):
        super().__init__(SimpleNamespace(now=0.0))

    def log(self, time, kind, **data):
        self.env.now = time
        self.event(kind, **data)


def make_trace():
    trace = ClockedTracer()
    trace.log(0.0, "submit", job="a")
    trace.log(1.0, "selected", job="a")
    trace.log(5.0, "agent-ready", job="a", agent="x")
    trace.log(50.0, "finished", job="a")
    trace.log(10.0, "submit", job="b")
    trace.log(12.0, "resubmit", job="b", site="s")
    trace.log(40.0, "finished", job="b")
    return trace


class TestTimeline:
    def test_lanes_and_markers(self):
        text = render_timeline(make_trace(), width=60)
        lines = text.splitlines()
        assert lines[0].startswith("Timeline: 2 jobs")
        lane_a = next(line for line in lines if line.strip().startswith("a "))
        assert "[" in lane_a or "s" in lane_a
        assert "]" in lane_a
        assert "A" in lane_a
        lane_b = next(line for line in lines if line.strip().startswith("b "))
        assert "r" in lane_b

    def test_empty_trace(self):
        assert render_timeline(ClockedTracer()) == "(empty trace)"

    def test_unfinished_job_runs_to_edge(self):
        trace = ClockedTracer()
        trace.log(0.0, "submit", job="run-on")
        trace.log(5.0, "selected", job="run-on")
        text = render_timeline(trace, width=40)
        lane = next(line for line in text.splitlines() if "run-on" in line)
        assert "]" not in lane

    def test_max_jobs_cap(self):
        trace = ClockedTracer()
        for i in range(10):
            trace.log(float(i), "submit", job=f"j{i}")
            trace.log(float(i) + 1, "finished", job=f"j{i}")
        text = render_timeline(trace, max_jobs=3)
        assert "7 more not shown" in text

    def test_failed_marker(self):
        trace = ClockedTracer()
        trace.log(0.0, "submit", job="bad")
        trace.log(2.0, "failed", job="bad", error="boom")
        trace.log(2.0, "finished", job="bad")
        text = render_timeline(trace, width=40)
        lane = next(line for line in text.splitlines() if "bad" in line)
        assert "!" in lane

    def test_records_without_job_ignored(self):
        trace = ClockedTracer()
        trace.log(0.0, "submit", job="x")
        trace.log(0.5, "unrelated", other="thing")
        trace.log(1.0, "finished", job="x")
        assert "1 jobs" in render_timeline(trace)
