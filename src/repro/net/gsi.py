"""Grid Security Infrastructure model.

The paper: "All the network communications are GSI-enabled and are
therefore a secure connection."  The evaluation only ever observes GSI as
*latency* (the mutual-authentication handshake before a channel is usable)
— so the model carries credential semantics (identity, proxy delegation,
expiry) plus a handshake coroutine whose cost is calibrated by
``MiddlewareCosts.gsi_handshake``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..sim import Environment, RandomStreams


class GsiError(Exception):
    """Authentication failure (expired proxy, identity mismatch)."""


@dataclass(frozen=True)
class Credential:
    """An X.509-style identity certificate."""

    subject: str
    issuer: str = "/DC=org/DC=crossgrid/CN=CrossGrid CA"

    def proxy(self, valid_until: float, delegated: bool = True) -> "ProxyCredential":
        """Create a short-lived proxy, optionally delegable onward."""
        return ProxyCredential(subject=self.subject + "/CN=proxy",
                               issuer=self.subject,
                               valid_until=valid_until,
                               delegable=delegated)


@dataclass(frozen=True)
class ProxyCredential(Credential):
    """A delegated, time-limited proxy certificate."""

    valid_until: float = float("inf")
    delegable: bool = True

    def is_valid(self, now: float) -> bool:
        return now < self.valid_until

    def delegate(self, valid_until: float) -> "ProxyCredential":
        if not self.delegable:
            raise GsiError(f"{self.subject}: proxy is not delegable")
        return ProxyCredential(subject=self.subject + "/CN=proxy",
                               issuer=self.subject,
                               valid_until=min(valid_until, self.valid_until),
                               delegable=True)

    @property
    def owner(self) -> str:
        """The end-entity subject a (chained) proxy acts for."""
        subject = self.subject
        while subject.endswith("/CN=proxy"):
            subject = subject[: -len("/CN=proxy")]
        return subject


@dataclass
class GsiSession:
    """Result of a successful handshake: both identities, established time."""

    client: Credential
    server: Credential
    established_at: float
    fields: dict = field(default_factory=dict)


def handshake(env: Environment, rng: RandomStreams, client: Credential,
              server: Credential, base_cost: float, rtt: float,
              stream: str = "gsi") -> Generator:
    """Perform GSI mutual authentication.

    Cost model: two protocol round trips plus asymmetric-crypto time
    (``base_cost`` covers both; ``rtt`` adds the path's round-trip
    contribution).  Fails if a proxy credential has expired.
    """
    now = env.now
    for cred in (client, server):
        if isinstance(cred, ProxyCredential) and not cred.is_valid(now):
            raise GsiError(f"expired proxy for {cred.subject}")
    cost = rng.jitter(f"{stream}/handshake", base_cost, 0.08) + 2.0 * rtt
    yield env.timeout(cost)
    return GsiSession(client=client, server=server, established_at=env.now)
