"""Hosts, links, and routed message delivery.

The network is an undirected graph of named :class:`Host` nodes joined by
:class:`Link` edges, each with one-way latency, bandwidth, and jitter.
Delivery time over a path is ``sum(latencies) + nbytes / min(bandwidth)``
plus multiplicative jitter.  Links can be taken down for failure-injection
windows; a transfer that starts while any path link is down raises
:class:`LinkDownError` (the reliable streaming mode's retry loop depends on
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..sim import Environment, RandomStreams
from .errors import LinkDownError, NoRouteError

#: Dynamic ports are allocated from this range upward ("listening in a
#: randomly selected port probing for an available port" — paper §4).
DYNAMIC_PORT_BASE = 20000


@dataclass
class Link:
    """A bidirectional network link."""

    a: str
    b: str
    latency: float
    bandwidth: float
    jitter: float = 0.05
    #: Closed-open failure windows [(start, end)); sorted by start.
    outages: List[Tuple[float, float]] = field(default_factory=list)

    def key(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def is_up(self, time: float) -> bool:
        for start, end in self.outages:
            if start <= time < end:
                return False
        return True

    def add_outage(self, start: float, duration: float) -> None:
        if duration <= 0:
            raise ValueError("outage duration must be > 0")
        self.outages.append((start, start + duration))
        self.outages.sort()

    def fail(self, time: float) -> None:
        """Open-ended failure from ``time`` until :meth:`recover`.

        The steering verbs (``fail_site``) use this instead of
        :meth:`add_outage` because a live operator does not know the
        outage duration up front.
        """
        self.outages.append((time, float("inf")))
        self.outages.sort()

    def recover(self, time: float) -> None:
        """Bring the link up at ``time``: truncate the covering window,
        cancel open-ended future windows, keep finished and scheduled
        finite windows."""
        kept: List[Tuple[float, float]] = []
        for start, end in self.outages:
            if end <= time:
                kept.append((start, end))  # already over
            elif start <= time:
                if time > start:  # covering now: truncate to [start, time)
                    kept.append((start, time))
            elif end != float("inf"):
                kept.append((start, end))  # scheduled finite window: keep
            # open-ended future windows are cancelled
        self.outages = kept


class Path(NamedTuple):
    """What every message between one ``(src, dst)`` pair needs, computed
    once: the routed links and their folded latency / bandwidth / jitter.

    Outage windows are *not* folded in: :meth:`up` reads each link's
    ``outages`` attribute on every call, so failure injection needs no
    invalidation hook.
    """

    links: List[Link]
    latency: float    # sum over links
    bandwidth: float  # min over links
    jitter: float     # max over links

    def up(self, time: float) -> bool:
        for link in self.links:
            if link.outages and not link.is_up(time):
                return False
        return True


class Host:
    """A named machine on the network.

    Port-level communication (sockets, listeners) is provided by
    :mod:`repro.net.sockets`; this class only carries identity and
    the per-port listener registry those sockets use.
    """

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        #: port -> Listener (populated by sockets.Listener)
        self.listeners: Dict[int, object] = {}
        #: The lowest unbound dynamic port: every port in
        #: ``[DYNAMIC_PORT_BASE, low_port)`` is bound.  sockets.Listener
        #: raises it on bind and lowers it on close.
        self.low_port = DYNAMIC_PORT_BASE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name}>"


class Network:
    """The simulated network fabric."""

    def __init__(self, env: Environment, rng: Optional[RandomStreams] = None) -> None:
        self.env = env
        self.rng = rng or RandomStreams(0)
        self.hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: (src, dst) -> Path; cleared by :meth:`add_link` and nowhere else.
        self._paths: Dict[Tuple[str, str], Path] = {}
        #: Enforces in-order delivery per flow: flow-id -> last arrival time.
        self._flow_clock: Dict[Tuple[str, str, int], float] = {}

    # -- construction ---------------------------------------------------
    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self, name)
        self.hosts[name] = host
        self._adjacency.setdefault(name, [])
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def add_link(self, a: str, b: str, latency: float, bandwidth: float,
                 jitter: float = 0.05) -> Link:
        if a not in self.hosts or b not in self.hosts:
            raise ValueError("both endpoints must be existing hosts")
        if a == b:
            raise ValueError("self-links are not allowed")
        link = Link(a, b, latency, bandwidth, jitter)
        if link.key() in self._links:
            raise ValueError(f"duplicate link {a}<->{b}")
        self._links[link.key()] = link
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._paths.clear()
        return link

    def link(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        return self._links[key]

    def links(self) -> Iterable[Link]:
        return self._links.values()

    # -- routing ----------------------------------------------------------
    def path(self, src: str, dst: str) -> Path:
        """The cached :class:`Path` record for ``src -> dst`` (shortest
        path by hop count, BFS)."""
        cached = self._paths.get((src, dst))
        if cached is not None:
            return cached
        if src == dst:  # nothing to traverse: delivery is immediate
            return Path([], 0.0, float("inf"), 0.0)
        prev: Dict[str, str] = {src: src}
        frontier = [src]
        while frontier and dst not in prev:
            nxt: List[str] = []
            for node in frontier:
                for nb in self._adjacency.get(node, ()):
                    if nb not in prev:
                        prev[nb] = node
                        nxt.append(nb)
            frontier = nxt
        if dst not in prev:
            raise NoRouteError(f"no route {src} -> {dst}")
        links: List[Link] = []
        node = dst
        while node != src:
            links.append(self.link(prev[node], node))
            node = prev[node]
        links.reverse()
        path = self._paths[(src, dst)] = Path(
            links,
            sum(link.latency for link in links),
            min(link.bandwidth for link in links),
            max(link.jitter for link in links))
        return path

    def route(self, src: str, dst: str) -> List[Link]:
        """The links of the shortest path between two hosts."""
        return self.path(src, dst).links

    def path_up(self, src: str, dst: str, time: Optional[float] = None) -> bool:
        return self.path(src, dst).up(self.env.now if time is None else time)

    # -- transfer timing ---------------------------------------------------
    def base_transfer_time(self, src: str, dst: str, nbytes: int) -> float:
        """Deterministic (jitter-free) delivery time for ``nbytes``."""
        path = self.path(src, dst)
        if not path.links:
            return 0.0
        return path.latency + nbytes / path.bandwidth

    @staticmethod
    def jitter_name(stream: str, src: str, dst: str) -> str:
        """The RNG stream :meth:`transfer_time` draws ``stream``'s
        ``src -> dst`` jitter from."""
        return f"{stream}/{src}->{dst}"

    def transfer_time(self, src: str, dst: str, nbytes: int,
                      stream: str = "net", *,
                      name: Optional[str] = None) -> float:
        """Jittered delivery time; jitter scale is the max along the path.

        A caller on a hot path builds ``jitter_name(stream, src, dst)``
        once and passes it as ``name``.
        """
        path = self.path(src, dst)
        if not path.links:
            return 0.0
        base = path.latency + nbytes / path.bandwidth
        if base == 0.0:
            return 0.0
        if name is None:
            name = self.jitter_name(stream, src, dst)
        return self.rng.jitter(name, base, path.jitter, floor=base * 0.25)

    def check_path(self, src: str, dst: str) -> None:
        """Raise :class:`LinkDownError` if the path is currently broken."""
        if not self.path(src, dst).up(self.env.now):
            raise LinkDownError(f"path {src} -> {dst} is down at t={self.env.now:.3f}")

    def ordered_arrival(self, flow: Tuple[str, str, int], delay: float) -> float:
        """Reserve an in-order arrival slot ``delay`` from now for ``flow``.

        Returns the additional wait (>= ``delay``) guaranteeing FIFO
        delivery for messages of the same flow.
        """
        arrival = self.env.now + delay
        last = self._flow_clock.get(flow, -1.0)
        if arrival <= last:
            arrival = last + 1e-9
        self._flow_clock[flow] = arrival
        return arrival - self.env.now

    # -- failure injection -------------------------------------------------
    def inject_outage(self, a: str, b: str, start: float, duration: float) -> None:
        """Schedule a failure window on link (a, b)."""
        self.link(a, b).add_outage(start, duration)

    def links_of(self, host: str) -> List[Link]:
        """Every link incident to ``host``."""
        if host not in self.hosts:
            raise KeyError(host)
        return [self.link(host, nb) for nb in self._adjacency.get(host, ())]

    def isolate_host(self, host: str, time: Optional[float] = None) -> int:
        """Open-endedly fail every link incident to ``host`` (steering
        verb ``fail_site`` applied to a gatekeeper).  Returns the number
        of links taken down."""
        t = self.env.now if time is None else time
        links = self.links_of(host)
        for link in links:
            link.fail(t)
        return len(links)

    def restore_host(self, host: str, time: Optional[float] = None) -> int:
        """Recover every link incident to ``host``; returns the count."""
        t = self.env.now if time is None else time
        links = self.links_of(host)
        for link in links:
            link.recover(t)
        return len(links)
