"""Broker core: scheduling, matchmaking, fair-share, multiprogramming.

Three broker modes share one contract, :class:`BrokerBase` — build
them through :func:`make_broker` (or ``Scenario(broker_mode=...)``):

* ``push`` — :class:`CrossBroker`, the paper's scheduler;
* ``pull`` — :class:`PullBroker`, AliEn-style central task queue;
* ``data`` — :class:`DataAwareBroker`, Gridbus-style locality ranking.
"""

from .base import BehaviorFactory, BrokerBase, BrokerConfig, SubmittedJob
from .broker import CrossBroker
from .data import DataAwareBroker
from .fairshare import (
    FairShareAccounting,
    UserAccount,
    UsageShare,
    af_batch,
    af_displaced_batch,
    af_interactive,
)
from .leases import Lease, LeaseTable
from .matchmaker import Candidate, Matchmaker
from .protocol import BROKER_MODES, make_broker
from .pull import PullBroker
from .replicas import Replica, ReplicaCatalog
from .reports import SubmissionPath, SubmissionReport
from .selection import ResourceSelector, SelectionOutcome
from .status import AgentStatus, BrokerSnapshot, JobStatus, job_stage, snapshot

__all__ = [
    "BROKER_MODES",
    "BehaviorFactory",
    "BrokerBase",
    "BrokerConfig",
    "Candidate",
    "CrossBroker",
    "DataAwareBroker",
    "FairShareAccounting",
    "Lease",
    "LeaseTable",
    "Matchmaker",
    "PullBroker",
    "Replica",
    "ReplicaCatalog",
    "ResourceSelector",
    "SelectionOutcome",
    "SubmissionPath",
    "SubmissionReport",
    "SubmittedJob",
    "make_broker",
    "AgentStatus",
    "BrokerSnapshot",
    "JobStatus",
    "job_stage",
    "snapshot",
    "UsageShare",
    "UserAccount",
    "af_batch",
    "af_displaced_batch",
    "af_interactive",
]
