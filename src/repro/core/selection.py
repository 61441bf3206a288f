"""Two-stage resource selection (paper §6.1).

Stage 1 — *resource discovery*: one query to the MDS index ("depends
mainly on the bandwidth and latency between the CrossBroker and the
information system... around 0.5 seconds").

Stage 2 — *selection of the best resource*: filter on requirements, then
"CrossBroker contacts each remote site individually and gets the most
updated information about the state of their local queues" (~3 s for 20
sites).  Refresh RPCs overlap up to a configurable parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from ..calibration import MiddlewareCosts
from ..jdl import JobDescription, rank_value
from ..net import Network, NetworkError, RpcClient
from ..sim import Environment, RandomStreams
from ..grid.gram import GRAM_PORT
from ..grid.mds import SiteAdvert, query_index
from ..grid.testbed import MDS_HOST
from .matchmaker import Candidate, Matchmaker


@dataclass
class SelectionOutcome:
    """Result + timing decomposition of one discovery/selection pass."""

    candidates: List[Candidate] = field(default_factory=list)
    selection_time: float = 0.0
    sites_refreshed: int = 0


class ResourceSelector:
    """Implements the two-stage pipeline on behalf of the broker."""

    def __init__(self, env: Environment, network: Network, rng: RandomStreams,
                 costs: MiddlewareCosts, broker_host: str) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self.costs = costs
        self.broker_host = broker_host
        self.matchmaker = Matchmaker(rng)
        #: When False, stage 2 trusts the (possibly stale) MDS adverts and
        #: skips the per-site refresh RPCs entirely — the lever the
        #: ``broker_modes`` experiment uses to expose push-mode staleness.
        self.refresh_enabled = True

    # -- stage 1 -----------------------------------------------------------
    def discover(self) -> Generator:
        """Query the information index; returns (adverts, elapsed)."""
        start = self.env.now
        adverts: List[SiteAdvert] = yield from query_index(
            self.env, self.network, self.rng, self.broker_host,
            MDS_HOST)
        # LDAP search + parsing/ingesting the result set (§6.1: the whole
        # discovery phase lands around mds_query ≈ 0.5 s).
        yield self.env.timeout(self.rng.jitter(
            "selector/ingest", 0.6 * self.costs.mds_query
            + 0.002 * len(adverts), 0.12))
        return adverts, self.env.now - start

    # -- stage 2 -----------------------------------------------------------
    def refresh_site(self, candidate: Candidate) -> Generator:
        """Contact one site for fresh queue state; returns updated candidate.

        §6.1: "information may not be completely accurate and, therefore,
        CrossBroker contacts each remote site individually and gets the
        most updated information about the state of their local queues."
        The refreshed attributes *replace* the stale MDS copy.
        Unreachable sites are dropped (returns None).
        """
        rpc = RpcClient(self.network, self.broker_host, candidate.gatekeeper,
                        GRAM_PORT, label=f"refresh/{candidate.site}")
        closed = False
        try:
            yield from rpc.connect()
            # The per-site query cost: jobmanager ping + queue inspection.
            yield self.env.timeout(self.rng.jitter(
                f"selector/refresh/{candidate.site}",
                self.costs.site_refresh, 0.2))
            fresh = yield from rpc.call("gram.queue_info", nbytes=512)
        except NetworkError:
            return None
        except GeneratorExit:
            # Collected while suspended (its world stopped mid-selection):
            # a closing generator must not yield, so the channel is left.
            closed = True
            raise
        finally:
            if rpc.connected and not closed:
                yield from rpc.close()
        merged = dict(candidate.attributes)
        if isinstance(fresh, dict):
            merged.update(fresh)
        return Candidate(candidate.site, candidate.gatekeeper, merged,
                         candidate.rank)

    def select(self, job: JobDescription,
               adverts: List[SiteAdvert]) -> Generator:
        """Filter, refresh (bounded parallelism), and order candidates."""
        start = self.env.now
        matched = self.matchmaker.filter_candidates(job, adverts)
        # Matchmaking CPU cost scales with candidate count.
        yield self.env.timeout(self.costs.matchmaking_per_site * max(len(adverts), 1))

        if not self.refresh_enabled:
            # Stale path: rank over the advert attributes as-is.  No RPCs,
            # no extra events — decisions are only as good as the index.
            ordered = self.matchmaker.order(job, list(matched))
            return SelectionOutcome(
                candidates=ordered,
                selection_time=self.env.now - start,
                sites_refreshed=0,
            )

        refreshed: List[Candidate] = []
        window = max(1, self.costs.site_refresh_parallelism)
        pending = list(matched)
        while pending:
            batch = pending[:window]
            pending = pending[window:]
            procs = [self.env.process(self.refresh_site(c),
                                      name=f"refresh/{c.site}")
                     for c in batch]
            for proc in procs:
                result = yield proc
                if result is not None:
                    refreshed.append(result)

        # Re-rank against the authoritative attributes (a Rank expression
        # over FreeCPUs must see the refreshed value, not the MDS copy).
        own = job.matchmaking_context()
        refreshed = [
            Candidate(c.site, c.gatekeeper, c.attributes,
                      rank_value(job.rank, own, c.attributes))
            for c in refreshed
        ]
        ordered = self.matchmaker.order(job, refreshed)
        return SelectionOutcome(
            candidates=ordered,
            selection_time=self.env.now - start,
            sites_refreshed=len(refreshed),
        )
