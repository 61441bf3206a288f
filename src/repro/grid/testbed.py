"""Testbed topology builders.

The paper's two measurement scenarios (§6): a *campus grid* (submission and
execution machines on the 100 Mbps university network) and a *wide-area
grid* (client at UAB, execution at IFCA/Santander).  §6.1 additionally uses
a set of ~20 European sites for the discovery/selection measurements, with
the information index in Germany.

Topology: a star around the backbone host ``core``.  The user-interface
machine ``ui`` and the broker machine ``broker`` sit on the department LAN;
each site's gatekeeper hangs off the core with its scenario profile; the
MDS index host ``mds`` is reached over a WAN-grade link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..calibration import CAMPUS, Calibration, DEFAULT_CALIBRATION, NetworkProfile
from ..net import Network
from ..sim import Environment, RandomStreams
from .mds import InformationIndex, MdsPublisher
from .site import Site, SiteConfig

UI_HOST = "ui"
BROKER_HOST = "broker"
CORE_HOST = "core"
MDS_HOST = "mds"

#: The MDS index is in Germany (paper §6.1): a long WAN hop.
MDS_PROFILE = NetworkProfile(latency=0.016, bandwidth=10e6 / 8, jitter=0.15)


@dataclass
class Testbed:
    """A fully wired simulation world."""

    env: Environment
    rng: RandomStreams
    network: Network
    calibration: Calibration
    index: InformationIndex
    sites: Dict[str, Site] = field(default_factory=dict)
    publishers: List[MdsPublisher] = field(default_factory=list)

    @property
    def ui(self) -> str:
        return UI_HOST

    @property
    def broker_host(self) -> str:
        return BROKER_HOST

    def site(self, name: str) -> Site:
        return self.sites[name]

    def total_free_cpus(self) -> int:
        return sum(site.lrms.free_count for site in self.sites.values())

    def add_site(self, config: SiteConfig, profile: NetworkProfile) -> Site:
        """Create a site and hang its gatekeeper off the core."""
        site = Site(self.env, self.network, self.rng, config, self.calibration)
        # Split the scenario latency across the two star legs so that the
        # ui->gk path sums to the profile latency.
        self.network.add_link(CORE_HOST, site.gatekeeper_host,
                              profile.latency / 2, profile.bandwidth,
                              profile.jitter)
        self.sites[config.name] = site
        self.publishers.append(MdsPublisher(
            self.env, self.network, self.rng, config.name,
            site.gatekeeper_host, site.gatekeeper_host, MDS_HOST,
            site.advert))
        return site

    def publish_all_now(self) -> None:
        """Synchronously seed the index with current adverts (test helper;
        skips the push RPC so it can run before ``env.run``)."""
        for site in self.sites.values():
            self.index._handle_register(site.name, site.gatekeeper_host,
                                        site.advert())


def base_world(seed: int = 0,
               calibration: Optional[Calibration] = None,
               sanitize: Optional[bool] = None) -> Testbed:
    """Core + ui + broker + MDS index, no sites yet.

    The primitive :class:`repro.Scenario` and :func:`europe_testbed`
    start from; call it directly only to hang hand-made
    :class:`SiteConfig` sites off a bare core (``testbed.add_site``).

    ``sanitize`` attaches the runtime lifecycle sanitizer to the world's
    environment (see :mod:`repro.analysis.sanitizer`); ``None`` defers to
    ``Environment.default_sanitize`` (audit scopes).
    """
    env = Environment(sanitize=sanitize)
    rng = RandomStreams(seed)
    network = Network(env, rng.spawn("network"))
    calibration = calibration or DEFAULT_CALIBRATION

    network.add_host(CORE_HOST)
    network.add_host(UI_HOST)
    network.add_host(BROKER_HOST)
    # Department LAN: ui and broker near each other, campus-grade uplink.
    network.add_link(UI_HOST, CORE_HOST, CAMPUS.latency / 2,
                     CAMPUS.bandwidth, CAMPUS.jitter)
    network.add_link(BROKER_HOST, CORE_HOST, CAMPUS.latency / 2,
                     CAMPUS.bandwidth, CAMPUS.jitter)
    network.add_host(MDS_HOST)
    network.add_link(CORE_HOST, MDS_HOST, MDS_PROFILE.latency,
                     MDS_PROFILE.bandwidth, MDS_PROFILE.jitter)
    return Testbed(env=env, rng=rng, network=network,
                   calibration=calibration,
                   index=InformationIndex(env, network, MDS_HOST))


def europe_testbed(seed: int = 0, n_sites: int = 20,
                   nodes_per_site: int = 4,
                   calibration: Optional[Calibration] = None,
                   site_names: Optional[Sequence[str]] = None,
                   sanitize: Optional[bool] = None) -> Testbed:
    """§6.1's discovery/selection setting: ~20 sites across Europe.

    Site WAN profiles are drawn (deterministically from ``seed``) between
    the campus and long-haul extremes, approximating the heterogeneous
    CrossGrid testbed (18 sites, 9 countries).
    """
    testbed = base_world(seed, calibration, sanitize=sanitize)
    rng = testbed.rng
    names = list(site_names) if site_names else [
        f"site{i:02d}" for i in range(n_sites)]
    for i, name in enumerate(names):
        latency = rng.uniform(f"testbed/lat/{name}", 0.004, 0.030)
        bandwidth = rng.uniform(f"testbed/bw/{name}", 4e6 / 8, 40e6 / 8)
        profile = NetworkProfile(latency=latency, bandwidth=bandwidth,
                                 jitter=0.15)
        testbed.add_site(SiteConfig(name, n_nodes=nodes_per_site), profile)
    return testbed
