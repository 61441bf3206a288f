"""The one broker factory.

Every broker mode — push (:class:`~repro.core.broker.CrossBroker`),
pull (:class:`~repro.core.pull.PullBroker`), data-aware
(:class:`~repro.core.data.DataAwareBroker`) — is a
:class:`~repro.core.base.BrokerBase` and presents its public surface, so
scenarios, experiments, and tooling can be written against that one
contract and switched between modes with a single ``broker_mode=``
string.  Construct brokers through :func:`make_broker`
(``tests/test_import_boundary.py`` checks experiments and examples): the
factory performs the mode-specific wiring (pull agents per site, the
replica catalog).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..calibration import Calibration
from ..grid.site import Site
from ..grid.testbed import BROKER_HOST
from ..net import Network
from ..sim import RandomStreams
from .base import BrokerBase, BrokerConfig
from .broker import CrossBroker
from .data import DataAwareBroker
from .pull import PullBroker
from .replicas import ReplicaCatalog

#: Scenario-facing mode names, in documentation order.
BROKER_MODES = ("push", "pull", "data")

_BROKER_CLASSES = {
    "push": CrossBroker,
    "pull": PullBroker,
    "data": DataAwareBroker,
}


def make_broker(env, network: Network, rng: RandomStreams,
                calibration: Calibration, *, mode: str = "push",
                broker_host: str = BROKER_HOST,
                config: Optional[BrokerConfig] = None,
                sites: Iterable[Site] = (),
                replicas: Optional[ReplicaCatalog] = None) -> BrokerBase:
    """Build a broker of the requested ``mode``, fully wired.

    ``config`` configures every mode alike.  ``sites`` is only consulted
    in pull mode (one :class:`~repro.grid.siteagent.SiteAgent` is started
    per site); ``replicas`` enables input-data staging in every mode and
    locality ranking in data mode.
    """
    if mode not in _BROKER_CLASSES:
        raise ValueError(
            f"unknown broker_mode {mode!r}; expected one of {BROKER_MODES}")
    broker = _BROKER_CLASSES[mode](env, network, rng, calibration,
                                   broker_host=broker_host, config=config,
                                   replicas=replicas)
    if isinstance(broker, PullBroker):
        for site in sites:
            broker.attach_site(site)
    return broker


__all__ = ["BROKER_MODES", "make_broker"]
