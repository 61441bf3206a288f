"""The BrokerProtocol contract and the one true broker factory.

Every broker mode — push (:class:`~repro.core.broker.CrossBroker`),
pull (:class:`~repro.core.pull.PullBroker`), data-aware
(:class:`~repro.core.data.DataAwareBroker`) — presents the same
structural surface, so scenarios, experiments, and tooling can be
written against the protocol and switched between modes with a single
``broker_mode=`` string.  Construct brokers through :func:`make_broker`
(``tests/test_import_boundary.py`` checks experiments and examples):
the factory validates the mode/config pairing and performs the
mode-specific wiring (pull agents per site, the replica catalog).
"""

from __future__ import annotations

from typing import (
    Any,
    Generator,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from ..calibration import Calibration
from ..grid.site import Site
from ..grid.testbed import BROKER_HOST
from ..jdl import JobDescription
from ..net import Network
from ..sim import RandomStreams
from .base import BehaviorFactory, BrokerConfig, SubmittedJob
from .broker import CrossBroker
from .data import DataAwareBroker, DataBrokerConfig
from .pull import PullBroker, PullBrokerConfig
from .replicas import ReplicaCatalog

#: Scenario-facing mode names, in documentation order.
BROKER_MODES = ("push", "pull", "data")

_BROKER_CLASSES = {
    "push": CrossBroker,
    "pull": PullBroker,
    "data": DataAwareBroker,
}

_CONFIG_CLASSES = {
    "push": BrokerConfig,
    "pull": PullBrokerConfig,
    "data": DataBrokerConfig,
}


@runtime_checkable
class BrokerProtocol(Protocol):
    """Structural contract every broker mode satisfies."""

    mode: str
    config: BrokerConfig

    def submit(self, job: JobDescription, behavior_factory: BehaviorFactory,
               ui_host: str = "ui", attach_console: Optional[bool] = None,
               daemon: bool = False) -> SubmittedJob:
        """Start one submission; returns the tracking record immediately."""
        ...

    def submit_and_wait(self, job: JobDescription,
                        behavior_factory: BehaviorFactory,
                        ui_host: str = "ui",
                        attach_console: Optional[bool] = None) -> Generator:
        ...

    def cancel(self, submitted: SubmittedJob,
               reason: str = "cancelled by user") -> Generator:
        ...

    def snapshot(self, submitted_jobs: Optional[List[SubmittedJob]] = None) -> Any:
        ...

    def drain(self) -> Generator:
        """Wind down mode-owned services (agents, listeners)."""
        ...


def make_broker(env, network: Network, rng: RandomStreams,
                calibration: Calibration, *, mode: str = "push",
                broker_host: str = BROKER_HOST,
                config: Optional[BrokerConfig] = None,
                sites: Iterable[Site] = (),
                replicas: Optional[ReplicaCatalog] = None) -> BrokerProtocol:
    """Build a broker of the requested ``mode``, fully wired.

    ``sites`` is only consulted in pull mode (one
    :class:`~repro.grid.siteagent.SiteAgent` is started per site);
    ``replicas`` enables input-data staging in every mode and locality
    ranking in data mode.  A ``config`` of the wrong subclass for the
    mode is rejected early — a ``PullBrokerConfig`` handed to the push
    broker would silently drop its pull knobs otherwise.
    """
    if mode not in _BROKER_CLASSES:
        raise ValueError(
            f"unknown broker_mode {mode!r}; expected one of {BROKER_MODES}")
    broker_cls = _BROKER_CLASSES[mode]
    config_cls = _CONFIG_CLASSES[mode]
    if config is not None:
        if not isinstance(config, config_cls):
            raise TypeError(
                f"broker_mode={mode!r} needs a {config_cls.__name__} "
                f"(got {type(config).__name__})")
        for other_mode, other_cls in _CONFIG_CLASSES.items():
            if other_cls is config_cls or issubclass(config_cls, other_cls):
                continue
            if isinstance(config, other_cls):
                raise TypeError(
                    f"{type(config).__name__} configures the "
                    f"{other_mode!r} broker, not {mode!r}")
    broker = broker_cls(env, network, rng, calibration,
                        broker_host=broker_host, config=config,
                        replicas=replicas)
    if mode == "pull":
        for site in sites:
            broker.attach_site(site)
    return broker


__all__ = ["BROKER_MODES", "BrokerProtocol", "make_broker"]
