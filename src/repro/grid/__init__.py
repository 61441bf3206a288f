"""Grid substrate: sites, worker nodes, batch systems, GRAM, MDS, staging."""

from .batchsystem import (
    BatchHandle,
    JobState,
    LocalBatchSystem,
    SchedulingPolicy,
)
from .cpu import Tenant, WorkerCpu
from .errors import (
    AgentDeadError,
    CoAllocationError,
    GridError,
    NoResourcesError,
    QueueFullError,
    SubmissionError,
)
from .gram import GRAM_PORT, Gatekeeper, GramClient, GramJobTicket
from .mds import InformationIndex, MDS_PORT, MdsPublisher, SiteAdvert, query_index
from .mpi import AllocationSlice, Subjob, plan_allocation, sites_used, subjobs_for
from .site import Site, SiteConfig
from .staging import retrieve_output, stage_input
from .testbed import (
    BROKER_HOST,
    CORE_HOST,
    MDS_HOST,
    Testbed,
    UI_HOST,
    base_world,
    europe_testbed,
)
from .workernode import Behavior, MachineContext, NodeSpec, WorkerNode

__all__ = [
    "AgentDeadError",
    "AllocationSlice",
    "BatchHandle",
    "Behavior",
    "BROKER_HOST",
    "CoAllocationError",
    "CORE_HOST",
    "Gatekeeper",
    "GramClient",
    "GramJobTicket",
    "GRAM_PORT",
    "GridError",
    "InformationIndex",
    "JobState",
    "LocalBatchSystem",
    "MachineContext",
    "MDS_HOST",
    "MDS_PORT",
    "MdsPublisher",
    "NodeSpec",
    "NoResourcesError",
    "QueueFullError",
    "SchedulingPolicy",
    "Site",
    "SiteAdvert",
    "SiteConfig",
    "Subjob",
    "SubmissionError",
    "Tenant",
    "Testbed",
    "UI_HOST",
    "WorkerCpu",
    "WorkerNode",
    "base_world",
    "europe_testbed",
    "plan_allocation",
    "query_index",
    "sites_used",
    "retrieve_output",
    "stage_input",
    "subjobs_for",
]
