"""Unit tests for the typed job model and its validation rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jdl import (
    JdlValidationError,
    JobCategory,
    JobDescription,
    JobFlavor,
    MachineAccess,
    StreamingMode,
)

FIGURE2 = """
Executable = "interactive_mpich-g2_app";
JobType    = {"interactive", "mpich-g2"};
NodeNumber = 2;
Arguments  = "-n";
"""


class TestParsing:
    def test_figure2(self):
        job = JobDescription.from_jdl(FIGURE2, owner="enol")
        assert job.category is JobCategory.INTERACTIVE
        assert job.flavor is JobFlavor.MPICH_G2
        assert job.node_number == 2
        assert job.arguments == ("-n",)
        assert job.owner == "enol"

    def test_defaults(self):
        job = JobDescription.from_jdl('Executable = "x";')
        assert job.category is JobCategory.BATCH
        assert job.flavor is JobFlavor.SEQUENTIAL
        assert job.node_number == 1
        assert job.streaming_mode is StreamingMode.RELIABLE
        assert job.machine_access is MachineAccess.EXCLUSIVE

    def test_jobtype_single_string(self):
        job = JobDescription.from_attributes(
            {"executable": "x", "jobtype": "interactive"})
        assert job.is_interactive

    def test_jobtype_aliases(self):
        job = JobDescription.from_attributes(
            {"executable": "x", "jobtype": ["interactive", "mpich"],
             "nodenumber": 2})
        assert job.flavor is JobFlavor.MPICH_P4

    def test_unknown_jobtype_component(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "jobtype": "exotic"})

    def test_executable_required(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_jdl("NodeNumber = 1;")

    def test_requirements_parsed_from_string_attr(self):
        job = JobDescription.from_attributes(
            {"executable": "x", "requirements": "other.FreeCPUs >= 1"})
        assert job.requirements is not None

    def test_unknown_attributes_go_to_raw(self):
        job = JobDescription.from_attributes(
            {"executable": "x", "MyCustomTag": "hello"})
        assert job.raw["mycustomtag"] == "hello"

    def test_input_sandbox_forms(self):
        job = JobDescription.from_attributes(
            {"executable": "x",
             "inputsandbox": ["data.bin", ("big.dat", 5 << 20)]})
        assert job.input_sandbox[0][0] == "data.bin"
        assert job.input_sandbox[1] == ("big.dat", 5 << 20)

    def test_job_ids_unique(self):
        a = JobDescription.from_jdl('Executable = "x";')
        b = JobDescription.from_jdl('Executable = "x";')
        assert a.job_id != b.job_id

    def test_clone_gets_fresh_id(self):
        job = JobDescription.from_jdl('Executable = "x";')
        clone = job.clone()
        assert clone.job_id != job.job_id
        assert clone.executable == job.executable


class TestValidation:
    def test_node_number_positive(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "nodenumber": 0})

    def test_sequential_must_be_single_node(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "jobtype": "batch", "nodenumber": 3})

    def test_performance_loss_multiple_of_five(self):
        # Paper §3: "Values for Performance Loss can be 0, 5, 10, 15..."
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "jobtype": "interactive",
                 "machineaccess": "shared", "performanceloss": 7})

    def test_performance_loss_range(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "jobtype": "interactive",
                 "machineaccess": "shared", "performanceloss": 105})

    def test_performance_loss_needs_shared_interactive(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "performanceloss": 10})

    def test_shared_access_needs_interactive(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "machineaccess": "shared"})

    def test_shadow_port_range(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "shadowport": 80})
        ok = JobDescription.from_attributes(
            {"executable": "x", "shadowport": 30000})
        assert ok.shadow_port == 30000

    def test_bad_enum_value(self):
        with pytest.raises(JdlValidationError):
            JobDescription.from_attributes(
                {"executable": "x", "jobtype": "interactive",
                 "streamingmode": "turbo"})

    @settings(max_examples=25, deadline=None)
    @given(pl=st.integers(0, 100).filter(lambda v: v % 5 == 0))
    def test_valid_performance_losses_accepted(self, pl):
        job = JobDescription.from_attributes(
            {"executable": "x", "jobtype": "interactive",
             "machineaccess": "shared", "performanceloss": pl})
        assert job.performance_loss == pl


class TestDerivedProperties:
    def test_console_agents_per_flavor(self):
        g2 = JobDescription.from_attributes(
            {"executable": "x", "jobtype": ["interactive", "mpich-g2"],
             "nodenumber": 4})
        p4 = JobDescription.from_attributes(
            {"executable": "x", "jobtype": ["interactive", "mpich-p4"],
             "nodenumber": 4})
        seq = JobDescription.from_attributes(
            {"executable": "x", "jobtype": "interactive"})
        # §4: one CA per MPICH-G2 subjob; one otherwise.
        assert g2.console_agents == 4
        assert p4.console_agents == 1
        assert seq.console_agents == 1

    def test_wants_shared_vm(self):
        shared = JobDescription.from_attributes(
            {"executable": "x", "jobtype": "interactive",
             "machineaccess": "shared"})
        assert shared.wants_shared_vm
        batch = JobDescription.from_attributes({"executable": "x"})
        assert not batch.wants_shared_vm

    def test_matchmaking_context_contains_key_fields(self):
        job = JobDescription.from_jdl(FIGURE2)
        ctx = job.matchmaking_context()
        assert ctx["nodenumber"] == 2
        assert "interactive" in ctx["jobtype"]

