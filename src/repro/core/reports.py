"""Submission outcome records (the rows of Table I come from these)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional


class SubmissionPath(enum.Enum):
    """Which of §5.2's scenarios (Figure 5) a job took."""

    #: Batch job: glide-in agent submitted through GRAM, job on batch-vm.
    BATCH_WITH_AGENT = "batch+agent"
    #: Batch job parked in the CrossBroker queue (no capacity anywhere).
    BROKER_QUEUED = "broker-queued"
    #: Interactive, exclusive access: idle machine through GRAM, no agent.
    INTERACTIVE_EXCLUSIVE = "interactive-exclusive"
    #: Interactive, shared: dispatched to an existing interactive VM.
    INTERACTIVE_SHARED_VM = "interactive-shared-vm"
    #: Interactive, shared, but no agent existed: new agent + job.
    INTERACTIVE_SHARED_NEW_AGENT = "interactive-shared-new-agent"
    #: Pull mode: the job waited in the central task queue until a site
    #: agent claimed it (AliEn-style inverted flow).
    PULLED = "pulled"


@dataclass
class SubmissionReport:
    """One job's stage record (Table I columns).

    Each stage boundary is stamped once, as an instant; a duration that
    spans two stamped instants is a property, never stored beside them.
    """

    job_id: str
    owner: str
    path: Optional[SubmissionPath] = None
    #: Stage 1 (MDS query).  0 for shared-VM jobs (local registry lookup).
    discovery_time: float = 0.0
    #: Stage 2 (filter + per-site refresh).
    selection_time: float = 0.0
    sites: List[str] = field(default_factory=list)
    resubmissions: int = 0
    rejected: bool = False
    error: Optional[str] = None
    #: Time spent staging the output sandbox back (0 when none).
    output_retrieval_time: float = 0.0
    #: Time spent fetching declared input datasets (0 when none).
    data_staging_time: float = 0.0
    submitted_at: float = 0.0
    #: The final submission began: GRAM connect, agent plant or agent
    #: dispatch.  An earlier attempt that queued or failed is overwritten.
    dispatched_at: Optional[float] = None
    #: Every subjob has started on its node.
    started_at: Optional[float] = None
    first_output_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def submission_time(self) -> float:
        """Table I's submission column: from the final submission until
        every subjob has *started* (0 before then).  The paper's column
        runs on to the first output, 1-14 ms later in Table I's runs."""
        if self.started_at is None or self.dispatched_at is None:
            return 0.0
        return self.started_at - self.dispatched_at

    @property
    def response_time(self) -> float:
        """``submit()`` call to first output (0 before it arrives)."""
        if self.first_output_at is None:
            return 0.0
        return self.first_output_at - self.submitted_at

    @property
    def success(self) -> bool:
        return self.error is None and not self.rejected
