"""Typed job model: the validated form of a JDL document.

Mirrors the attributes of paper Figure 2 plus the interactivity attributes
of §3 (StreamingMode, MachineAccess, PerformanceLoss) and §4 (the optional
user-pinned shadow port for firewall traversal).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from .expr import Expr
from .parser import parse_document, parse_expression


class JdlValidationError(ValueError):
    """Raised when a JDL document is syntactically fine but semantically bad."""


class JobCategory(enum.Enum):
    BATCH = "batch"
    INTERACTIVE = "interactive"


class JobFlavor(enum.Enum):
    SEQUENTIAL = "sequential"
    MPICH_P4 = "mpich-p4"
    MPICH_G2 = "mpich-g2"


class StreamingMode(enum.Enum):
    """§3: reliable buffers to disk and retries; fast ships unbuffered."""

    RELIABLE = "reliable"
    FAST = "fast"


class MachineAccess(enum.Enum):
    """§3: exclusive waits for an idle machine; shared uses the
    multiprogramming agent's interactive VM."""

    EXCLUSIVE = "exclusive"
    SHARED = "shared"


_job_counter = itertools.count(1)


def _next_job_id() -> str:
    return f"job-{next(_job_counter):06d}"


@dataclass
class JobDescription:
    """A validated job, ready for submission to the CrossBroker."""

    executable: str
    arguments: Tuple[str, ...] = ()
    owner: str = "anonymous"
    category: JobCategory = JobCategory.BATCH
    flavor: JobFlavor = JobFlavor.SEQUENTIAL
    node_number: int = 1
    streaming_mode: StreamingMode = StreamingMode.RELIABLE
    machine_access: MachineAccess = MachineAccess.EXCLUSIVE
    #: Percentage of CPU the interactive job leaves to a co-located batch
    #: job (multiples of 5; §3).
    performance_loss: int = 0
    requirements: Optional[Expr] = None
    rank: Optional[Expr] = None
    #: User-pinned shadow port (None -> randomly probed; §4).
    shadow_port: Optional[int] = None
    #: Input sandbox files: (name, size in bytes).
    input_sandbox: Tuple[Tuple[str, int], ...] = ()
    #: Output sandbox files the job produces, staged back after completion
    #: (§1: the user "retrieves the output after the job is executed").
    output_sandbox: Tuple[Tuple[str, int], ...] = ()
    #: Estimated runtime, used by workload generators (not by the broker).
    estimated_runtime: Optional[float] = None
    #: Raw attribute dict (the job side of matchmaking contexts).
    raw: Dict[str, Any] = field(default_factory=dict)
    job_id: str = field(default_factory=_next_job_id)

    # -- derived ----------------------------------------------------------
    @property
    def is_interactive(self) -> bool:
        return self.category is JobCategory.INTERACTIVE

    @property
    def wants_shared_vm(self) -> bool:
        return self.is_interactive and self.machine_access is MachineAccess.SHARED

    @property
    def console_agents(self) -> int:
        """Number of Console Agents (one per MPICH-G2 subjob, else one; §4)."""
        if self.flavor is JobFlavor.MPICH_G2:
            return self.node_number
        return 1

    def matchmaking_context(self) -> Dict[str, Any]:
        """The job-side ("self") attribute set for Requirements/Rank."""
        context = {
            "executable": self.executable,
            "jobtype": [self.category.value, self.flavor.value],
            "nodenumber": self.node_number,
            "performanceloss": self.performance_loss,
        }
        context.update(self.raw)
        return context

    def clone(self, **overrides: Any) -> "JobDescription":
        """A copy with a fresh job id (used by resubmission and sweeps)."""
        overrides.setdefault("job_id", _next_job_id())
        return replace(self, **overrides)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_jdl(cls, text: str, owner: str = "anonymous") -> "JobDescription":
        """Parse and validate a JDL document (paper Figure 2 syntax)."""
        doc = parse_document(text)
        return cls.from_attributes(doc, owner=owner)

    @classmethod
    def from_attributes(cls, doc: Dict[str, Any], owner: str = "anonymous") -> "JobDescription":
        doc = {k.lower(): v for k, v in doc.items()}

        executable = doc.pop("executable", None)
        if not isinstance(executable, str) or not executable:
            raise JdlValidationError("Executable is required and must be a string")

        arguments = doc.pop("arguments", ())
        if isinstance(arguments, str):
            arguments = tuple(arguments.split())
        elif isinstance(arguments, (list, tuple)):
            arguments = tuple(str(a) for a in arguments)
        else:
            raise JdlValidationError("Arguments must be a string or list")

        category, flavor = _parse_job_type(doc.pop("jobtype", "batch"))

        node_number = doc.pop("nodenumber", 1)
        if not isinstance(node_number, int) or isinstance(node_number, bool):
            raise JdlValidationError("NodeNumber must be an integer")

        streaming = _parse_enum(StreamingMode, doc.pop("streamingmode", "reliable"),
                                "StreamingMode")
        access = _parse_enum(MachineAccess, doc.pop("machineaccess", "exclusive"),
                             "MachineAccess")

        perf_loss = doc.pop("performanceloss", 0)
        if not isinstance(perf_loss, int) or isinstance(perf_loss, bool):
            raise JdlValidationError("PerformanceLoss must be an integer")

        requirements = _coerce_expr(doc.pop("requirements", None), "Requirements")
        rank = _coerce_expr(doc.pop("rank", None), "Rank")

        shadow_port = doc.pop("shadowport", None)
        if shadow_port is not None and (not isinstance(shadow_port, int)
                                        or isinstance(shadow_port, bool)):
            raise JdlValidationError("ShadowPort must be an integer")

        sandbox = _parse_sandbox(doc.pop("inputsandbox", []), "InputSandbox")
        out_sandbox = _parse_sandbox(doc.pop("outputsandbox", []),
                                     "OutputSandbox")

        runtime = doc.pop("estimatedruntime", None)
        if runtime is not None and not isinstance(runtime, (int, float)):
            raise JdlValidationError("EstimatedRuntime must be numeric")

        job = cls(
            executable=executable,
            arguments=arguments,
            owner=owner,
            category=category,
            flavor=flavor,
            node_number=node_number,
            streaming_mode=streaming,
            machine_access=access,
            performance_loss=perf_loss,
            requirements=requirements,
            rank=rank,
            shadow_port=shadow_port,
            input_sandbox=tuple(sandbox),
            output_sandbox=tuple(out_sandbox),
            estimated_runtime=float(runtime) if runtime is not None else None,
            raw=doc,
        )
        job.validate()
        return job

    # -- validation -----------------------------------------------------------
    def validate(self) -> None:
        if self.node_number < 1:
            raise JdlValidationError("NodeNumber must be >= 1")
        if self.flavor is JobFlavor.SEQUENTIAL and self.node_number != 1:
            raise JdlValidationError("sequential jobs must have NodeNumber = 1")
        if self.performance_loss < 0 or self.performance_loss > 100:
            raise JdlValidationError("PerformanceLoss must be in [0, 100]")
        if self.performance_loss % 5 != 0:
            # Paper §3: "Values for Performance Loss can be 0, 5, 10, 15..."
            raise JdlValidationError("PerformanceLoss must be a multiple of 5")
        if self.performance_loss and not self.wants_shared_vm:
            raise JdlValidationError(
                "PerformanceLoss only applies to interactive shared-access jobs")
        if self.machine_access is MachineAccess.SHARED and not self.is_interactive:
            raise JdlValidationError("shared MachineAccess requires an interactive job")
        if self.shadow_port is not None and not (1024 <= self.shadow_port <= 65535):
            raise JdlValidationError("ShadowPort must be in [1024, 65535]")


def _parse_sandbox(raw: Any, attr: str) -> List[Tuple[str, int]]:
    """Sandbox entries: bare names (default 1 MiB) or (name, bytes)."""
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        raise JdlValidationError(f"{attr} must be a string or list")
    sandbox: List[Tuple[str, int]] = []
    for item in raw:
        if isinstance(item, str):
            sandbox.append((item, 1 << 20))  # default 1 MiB
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            sandbox.append((str(item[0]), int(item[1])))
        else:
            raise JdlValidationError(f"bad {attr} entry {item!r}")
    return sandbox


def _coerce_expr(value: Any, attr: str) -> Optional[Expr]:
    """Accept an already-parsed Expr, a source string, a bool, or None."""
    if value is None:
        return None
    if isinstance(value, str):
        return parse_expression(value)
    if isinstance(value, bool):
        return parse_expression("true" if value else "false")
    if isinstance(value, Expr.__args__):  # type: ignore[attr-defined]
        return value
    raise JdlValidationError(f"{attr} must be an expression, got {value!r}")


def _parse_enum(enum_cls, value: Any, attr: str):
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls(value.lower())
        except ValueError:
            pass
    raise JdlValidationError(
        f"{attr} must be one of {[e.value for e in enum_cls]}, got {value!r}")


def _parse_job_type(value: Any) -> Tuple[JobCategory, JobFlavor]:
    """JobType may be a single string or a list like {"interactive","mpich-g2"}."""
    parts: List[str]
    if isinstance(value, str):
        parts = [value]
    elif isinstance(value, list):
        parts = [str(v) for v in value]
    else:
        raise JdlValidationError(f"JobType must be a string or list, got {value!r}")

    category = JobCategory.BATCH
    flavor = JobFlavor.SEQUENTIAL
    for part in parts:
        lowered = part.lower()
        if lowered in ("batch", "normal"):
            category = JobCategory.BATCH
        elif lowered == "interactive":
            category = JobCategory.INTERACTIVE
        elif lowered == "sequential":
            flavor = JobFlavor.SEQUENTIAL
        elif lowered in ("mpich-p4", "mpich_p4", "mpichp4", "mpich"):
            flavor = JobFlavor.MPICH_P4
        elif lowered in ("mpich-g2", "mpich_g2", "mpichg2"):
            flavor = JobFlavor.MPICH_G2
        else:
            raise JdlValidationError(f"unknown JobType component {part!r}")
    return category, flavor
