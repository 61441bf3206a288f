"""Data-aware brokering: transfer-cost ranking plus deadline/budget gates.

The Gridbus broker (PAPERS.md, cs/0405023) schedules *distributed
data-intensive* applications by treating data location as a first-class
scheduling input: candidate sites are ranked by compute *and* network
proximity to the job's datasets, under user-supplied deadline and budget
constraints.  :class:`DataAwareBroker` grafts that economy onto the push
pipeline — it is a :class:`~repro.core.broker.CrossBroker` whose
candidate list passes through one extra refinement stage:

1. consult the :class:`~repro.core.replicas.ReplicaCatalog` for every
   ``InputData`` file and charge a deterministic lookup cost;
2. drop candidates that cannot finish inside the JDL ``Deadline``
   (transfer estimate + runtime estimate vs. time remaining) or whose
   projected CPU cost exceeds the JDL ``Budget``;
3. demote remaining candidates by ``data_rank_weight x`` the jitter-free
   transfer estimate, then re-order (stable, so rank ties keep the
   seeded-shuffle order of the base matchmaker).

Input staging then fetches each file from its *nearest* replica instead
of the first registered copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Generator, List

from ..grid.errors import NoResourcesError
from ..sim import trace_event, trace_span
from .base import BrokerConfig, SubmittedJob
from .broker import CrossBroker
from .matchmaker import Candidate


@dataclass
class DataBrokerConfig(BrokerConfig):
    """Data-mode tunables on top of the shared broker knobs."""

    #: Rank demotion per second of estimated input transfer.
    data_rank_weight: float = 1.0
    #: Replica-catalog lookup cost per file (one indexed query).
    replica_lookup_cost: float = 0.04
    enforce_deadline: bool = True
    enforce_budget: bool = True
    #: Advert attribute naming a site's price (Gridbus' economy model);
    #: sites that do not publish one charge ``default_cpu_cost``.
    cpu_cost_attribute: str = "CostPerCpuSecond"
    default_cpu_cost: float = 0.0
    #: Runtime estimate for jobs without JDL ``EstimatedRuntime``.
    default_runtime_estimate: float = 60.0


class DataAwareBroker(CrossBroker):
    """Push broker whose selection also weighs data locality and cost."""

    mode: ClassVar[str] = "data"

    def _default_config(self) -> DataBrokerConfig:
        return DataBrokerConfig()

    # -- staging picks the closest copy, not the first --------------------
    def _pick_replica(self, lfn: str, candidate):
        assert self.replicas is not None
        return self.replicas.nearest(lfn, candidate.gatekeeper)

    # -- the refinement stage ---------------------------------------------
    def _refine_candidates(self, submitted: SubmittedJob,
                           candidates: List[Candidate]) -> Generator:
        job = submitted.job
        config: DataBrokerConfig = self.config
        lfns = self._data_lfns(job) if self.replicas is not None else ()
        deadline = job.raw.get("deadline")
        budget = job.raw.get("budget")
        if not lfns and deadline is None and budget is None:
            # Plain job: behave exactly like the push broker (no events).
            return candidates

        started = self.env.now
        report = submitted.report
        with trace_span(self.env, "data_refine", job=job.job_id,
                        n_candidates=len(candidates), n_files=len(lfns)):
            # One indexed catalog query per declared file.
            yield self.env.timeout(self.rng.jitter(
                "broker/replica-lookup",
                config.replica_lookup_cost * max(len(lfns), 1), 0.15))

        runtime = job.estimated_runtime \
            if job.estimated_runtime is not None \
            else config.default_runtime_estimate
        time_left = None
        if config.enforce_deadline and deadline is not None:
            # JDL Deadline is relative to submission.
            time_left = report.submitted_at + float(deadline) - self.env.now

        refined: List[Candidate] = []
        dropped_deadline = 0
        dropped_budget = 0
        for c in candidates:
            transfer = sum(self.replicas.transfer_estimate(lfn, c.gatekeeper)
                           for lfn in lfns) if lfns else 0.0
            if time_left is not None and transfer + runtime > time_left:
                dropped_deadline += 1
                continue
            if config.enforce_budget and budget is not None:
                price = float(c.attributes.get(config.cpu_cost_attribute,
                                               config.default_cpu_cost))
                if price * runtime * job.node_number > float(budget):
                    dropped_budget += 1
                    continue
            refined.append(Candidate(
                c.site, c.gatekeeper, c.attributes,
                c.rank - config.data_rank_weight * transfer))
        # Stable sort: equal adjusted ranks keep the seeded-shuffle order.
        refined.sort(key=lambda c: -c.rank)

        report.selection_time += self.env.now - started
        t = self.env.telemetry
        if t is not None:
            t.counter("broker.data.refines").inc()
            if dropped_deadline:
                t.counter("broker.data.dropped.deadline").inc(dropped_deadline)
            if dropped_budget:
                t.counter("broker.data.dropped.budget").inc(dropped_budget)
        trace_event(self.env, "data-refined", job=job.job_id,
                    kept=len(refined), deadline_dropped=dropped_deadline,
                    budget_dropped=dropped_budget)
        if not refined:
            raise NoResourcesError(
                f"{job.job_id}: no site satisfies the deadline/budget "
                "constraints")
        return refined


__all__ = ["DataAwareBroker", "DataBrokerConfig"]
