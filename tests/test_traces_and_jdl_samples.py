"""The shipped sample JDL documents and expression string round trips."""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jdl import JobDescription, parse_expression
from repro.jdl.expr import Context, evaluate

EXAMPLES_JDL = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "jdl")


class TestSampleJdlFiles:
    def test_all_samples_parse_and_validate(self):
        paths = sorted(glob.glob(os.path.join(EXAMPLES_JDL, "*.jdl")))
        assert len(paths) >= 3
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                job = JobDescription.from_jdl(fh.read())
            job.validate()

    def test_figure2_sample_attributes(self):
        with open(os.path.join(EXAMPLES_JDL, "interactive_mpi.jdl"),
                  encoding="utf-8") as fh:
            job = JobDescription.from_jdl(fh.read())
        assert job.node_number == 2
        assert job.console_agents == 2
        assert job.wants_shared_vm

    def test_batch_sample_sandboxes(self):
        with open(os.path.join(EXAMPLES_JDL, "batch_simulation.jdl"),
                  encoding="utf-8") as fh:
            job = JobDescription.from_jdl(fh.read())
        assert job.input_sandbox[0] == ("geometry.db", 2097152)
        assert job.output_sandbox[1] == ("run.log", 1 << 20)
        assert job.requirements is not None


class TestExpressionStringRoundTrip:
    CASES = [
        "other.FreeCPUs >= 2 && other.OpSys == \"Linux\"",
        "other.FreeCPUs * 2 + 1",
        "!(other.Busy) || self.NodeNumber < 4",
        "Member(\"cms\", other.Tags)",
        "-(3) + other.CpuMHz / 2",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_str_reparses_to_equal_semantics(self, source):
        first = parse_expression(source)
        second = parse_expression(str(first))
        context = Context(
            {"nodenumber": 2},
            {"FreeCPUs": 3, "OpSys": "Linux", "Busy": False,
             "Tags": ["cms", "atlas"], "CpuMHz": 2400})
        assert evaluate(first, context) == evaluate(second, context)
        assert str(second) == str(first)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-100, 100), b=st.integers(1, 100),
           op=st.sampled_from(["+", "-", "*", "<", ">=", "=="]))
    def test_random_binary_roundtrip(self, a, b, op):
        source = f"({a}) {op} ({b})"
        first = parse_expression(source)
        second = parse_expression(str(first))
        context = Context({}, {})
        assert evaluate(first, context) == evaluate(second, context)
