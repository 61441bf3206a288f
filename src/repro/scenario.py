"""Unified scenario construction: one front door to a wired world.

A :class:`Scenario` is a declarative description of a world; building
it returns a handle a driver can submit through and run::

    handle = Scenario(sites=20, scenario="campus", seed=7).build()
    submitted = handle.submit(job, lambda rank: app())
    handle.run(until=submitted.finished)

The builder covers the paper's three measurement worlds:

``campus``
    §6's first scenario: the target site ``uab`` on the 100 Mbps
    university LAN.  With ``sites > 1`` the remaining sites are random
    WAN-profile filler sites, exactly Table I's 20-site discovery world.
``wan``
    §6's second scenario: the target site ``ifca`` behind the
    UAB<->IFCA wide-area path, plus optional filler sites.
``europe``
    §6.1's ~20-site European testbed (no distinguished target).

A :class:`ScenarioHandle` bundles everything a driver needs — ``env``,
``network``, ``rng``, ``testbed``, a lazily created ``broker``, and an
optional lifecycle ``tracer`` — so call sites never juggle five objects.

The scenario also selects the brokering mode (``broker_mode="push" |
"pull" | "data"``) — the handle's ``broker`` is a
:class:`repro.core.BrokerBase` whichever mode is chosen.  The only
thing below it is :func:`repro.grid.base_world`, the bare
core+ui+broker+MDS world every scenario starts from; reach for that only
to hang hand-made :class:`~repro.grid.SiteConfig` sites off an empty
core.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from .calibration import (
    CAMPUS,
    Calibration,
    DEFAULT_CALIBRATION,
    NetworkProfile,
    WAN,
)
from .grid import SiteConfig, Testbed, base_world, europe_testbed
from .grid.site import Site
from .net import Network
from .sim import Environment, RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .core import BrokerBase, BrokerConfig, ReplicaCatalog, SubmittedJob
    from .obs import Telemetry, Tracer

#: Target site name per scenario kind.
_TARGET = {"campus": "uab", "wan": "ifca"}

#: Filler-site RNG stream prefix.  Kept at the historical ``t1`` name used
#: by the Table I world builder so that Scenario-built worlds are
#: draw-for-draw identical to the pre-facade ones (and cache keys stay
#: stable across the migration).
_FILLER_STREAM_PREFIX = "t1"


@dataclass(frozen=True)
class Scenario:
    """Declarative description of a simulation world.

    Immutable and hashable: a Scenario can be used as a dictionary key or
    sharded across processes (it is picklable along with its calibration).
    """

    #: Total number of grid sites.
    sites: int = 1
    #: World kind: ``campus`` | ``wan`` | ``europe``.
    scenario: str = "campus"
    #: Worker nodes on the target site (and on each europe site).
    nodes_per_site: int = 4
    #: Root seed of the world's deterministic RNG tree.
    seed: int = 0
    #: Calibration bundle (defaults to the paper calibration).
    calibration: Calibration = field(
        default_factory=lambda: DEFAULT_CALIBRATION)
    #: Seed the MDS index synchronously after construction.
    publish: bool = True
    #: Install a lifecycle :class:`repro.obs.Tracer` on the environment.
    trace: bool = False
    #: Install a sim-time metrics :class:`repro.obs.Telemetry` registry on
    #: the environment (``env.telemetry``; queue depths, backlogs, slot
    #: occupancy become observable with zero cost when left off).
    telemetry: bool = False
    #: Attach the runtime lifecycle sanitizer
    #: (:mod:`repro.analysis.sanitizer`) to the environment.  ``None``
    #: defers to ``Environment.default_sanitize`` so audit scopes
    #: (:func:`repro.analysis.sanitize_all`) can flip whole builds.
    sanitize: Optional[bool] = None
    #: Brokering mode: ``push`` (the paper's CrossBroker), ``pull``
    #: (AliEn-style task queue drained by per-site agents), or ``data``
    #: (Gridbus-style transfer-cost ranking + deadline/budget gates).
    broker_mode: str = "push"

    def build(self) -> "ScenarioHandle":
        """Construct and wire the world; returns the bundle handle."""
        if self.scenario not in ("campus", "wan", "europe"):
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"choose campus, wan, or europe")
        if self.sites < 1:
            raise ValueError("a scenario needs at least one site")
        from .core import BROKER_MODES

        if self.broker_mode not in BROKER_MODES:
            raise ValueError(
                f"unknown broker_mode {self.broker_mode!r}; "
                f"choose one of {', '.join(BROKER_MODES)}")

        if self.scenario == "europe":
            testbed = europe_testbed(
                seed=self.seed, n_sites=self.sites,
                nodes_per_site=self.nodes_per_site,
                calibration=self.calibration, sanitize=self.sanitize)
            target = None
        else:
            testbed = base_world(seed=self.seed,
                                 calibration=self.calibration,
                                 sanitize=self.sanitize)
            target = _TARGET[self.scenario]
            profile = CAMPUS if self.scenario == "campus" else WAN
            testbed.add_site(
                SiteConfig(target, n_nodes=self.nodes_per_site), profile)
            for i in range(self.sites - 1):
                name = f"site{i:02d}"
                latency = testbed.rng.uniform(
                    f"{_FILLER_STREAM_PREFIX}/lat/{name}", 0.004, 0.030)
                bandwidth = testbed.rng.uniform(
                    f"{_FILLER_STREAM_PREFIX}/bw/{name}", 4e6 / 8, 40e6 / 8)
                testbed.add_site(SiteConfig(name, n_nodes=4),
                                 NetworkProfile(latency, bandwidth, 0.15))

        tracer = None
        if self.trace:
            from .obs import Tracer

            tracer = Tracer(testbed.env).install()
        registry = None
        if self.telemetry:
            from .obs import Telemetry

            registry = Telemetry(testbed.env).install()
        if self.publish:
            testbed.publish_all_now()
        handle = ScenarioHandle(scenario=self, testbed=testbed, target=target,
                                tracer=tracer, telemetry=registry)
        # A control_scope can only be open once its module is imported, so
        # an unsteered build never imports repro.obs just to look.
        control = sys.modules.get("repro.obs.control")
        scope = control.ChaosSchedule.scope if control is not None else None
        if scope is not None:
            from .core.steering import SteeringAdapter

            schedule, steered = scope
            world = SteeringAdapter(handle)
            world.replay(schedule)
            steered.append(world)
        return handle


@dataclass
class ScenarioHandle:
    """A built world: environment, network, RNG, testbed, broker, tracer.

    The broker is created lazily on first access, so worlds that never
    submit through the CrossBroker (pure streaming/baseline measurements)
    pay nothing for the facade.
    """

    scenario: Scenario
    testbed: Testbed
    #: Name of the distinguished target site (None for ``europe`` worlds).
    target: Optional[str]
    tracer: Optional["Tracer"] = None
    telemetry: Optional["Telemetry"] = None
    _broker: Optional["BrokerBase"] = None
    _replicas: Optional["ReplicaCatalog"] = None

    # -- bundle accessors -------------------------------------------------
    @property
    def env(self) -> Environment:
        return self.testbed.env

    @property
    def network(self) -> Network:
        return self.testbed.network

    @property
    def rng(self) -> RandomStreams:
        return self.testbed.rng

    @property
    def calibration(self) -> Calibration:
        return self.testbed.calibration

    @property
    def sanitizer(self):
        """The environment's lifecycle sanitizer (None unless enabled)."""
        return self.testbed.env.sanitizer

    @property
    def replicas(self) -> "ReplicaCatalog":
        """The world's replica catalog (created lazily, shared with the
        broker).  Register copies here *before* first broker access."""
        from .core import ReplicaCatalog

        if self._replicas is None:
            self._replicas = ReplicaCatalog(self.network)
        return self._replicas

    @property
    def broker(self) -> "BrokerBase":
        if self._broker is None:
            self._broker = self._make_broker(config=None)
        return self._broker

    def configure_broker(self, config: "BrokerConfig") -> "BrokerBase":
        """Create the broker with a non-default :class:`BrokerConfig`
        (one config serves every mode); returns the
        :class:`~repro.core.BrokerBase`."""
        if self._broker is not None:
            raise RuntimeError("broker already created for this handle")
        self._broker = self._make_broker(config=config)
        return self._broker

    def _make_broker(self, config: Optional["BrokerConfig"]) -> "BrokerBase":
        from .core import make_broker

        return make_broker(self.env, self.network, self.rng, self.calibration,
                           mode=self.scenario.broker_mode, config=config,
                           sites=self.testbed.sites.values(),
                           replicas=self.replicas)

    # -- world accessors --------------------------------------------------
    def site(self, name: Optional[str] = None) -> Site:
        """A site by name; defaults to the scenario's target site."""
        if name is None:
            if self.target is None:
                raise ValueError("europe scenarios have no default target "
                                 "site; pass a name")
            name = self.target
        return self.testbed.site(name)

    def node(self, site: Optional[str] = None, index: int = 0):
        """A worker node (default: first node of the target site)."""
        return self.site(site).nodes[index]

    def publish_all_now(self) -> None:
        self.testbed.publish_all_now()

    # -- driver conveniences ----------------------------------------------
    def submit(self, job, behavior, ui_host: str = "ui",
               attach_console: Optional[bool] = None,
               daemon: bool = False) -> "SubmittedJob":
        """Submit through the (lazily created) broker.

        Parameters mirror :meth:`repro.core.BrokerBase.submit`:
        ``ui_host`` is where the Grid Console shadow listens,
        ``attach_console`` overrides the interactive-job default, and
        ``daemon=True`` marks a background-by-design submission exempt
        from the lifecycle sanitizer.
        """
        return self.broker.submit(job, behavior, ui_host=ui_host,
                                  attach_console=attach_console,
                                  daemon=daemon)

    def run(self, until=None):
        """Advance the simulation (delegates to ``env.run``)."""
        return self.env.run(until=until)


__all__ = ["Scenario", "ScenarioHandle"]
