"""World-side handlers for the chaos steering verbs.

:class:`SteeringAdapter` wraps a built :class:`repro.scenario.ScenarioHandle`
and implements the steering verbs — ``inject``, ``kill``, ``drain_site``,
``undrain_site``, ``fail_site``, ``recover_site`` — plus the
``site_rows()`` / ``job_rows()`` reads ``repro serve`` summarises.
``Scenario.build()`` constructs one and binds it to the environment's
controller whenever a :func:`repro.obs.control.control_scope` is active;
drivers never instantiate it directly (simlint's ``flow-layer-dag``
rule enforces this, like the broker classes themselves).

Every verb runs at the controller's drain point — between kernel
events — so the handlers may mutate world state freely.  Verb methods
return JSON-able dicts describing what they changed.  G-Monitor
(cs/0302007) is the model: the portal steers jobs through the broker's
own verbs rather than reaching into resources behind its back.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..workloads import cpu_bound_app, synthetic_job
from .status import job_stage

if TYPE_CHECKING:  # pragma: no cover - typing only (scenario is a
    # higher layer; the handle is handed in by Scenario.build)
    from ..scenario import ScenarioHandle
    from .base import SubmittedJob

__all__ = ["SteeringAdapter"]


class SteeringAdapter:
    """The steering verbs of one built scenario world."""

    def __init__(self, handle: "ScenarioHandle") -> None:
        self.handle = handle
        #: Every job this adapter knows about, in registration order:
        #: injected ones plus driver submissions registered via
        #: :meth:`track`.  Keyed by job id (insertion-ordered dict).
        self.jobs: Dict[str, "SubmittedJob"] = {}
        self._inject_counter = itertools.count()

    # -- bookkeeping -------------------------------------------------------
    def track(self, submitted: "SubmittedJob") -> "SubmittedJob":
        """Register a driver-submitted job so ``kill`` and ``job_rows``
        can see it.  Returns the job unchanged (chainable)."""
        self.jobs[submitted.job.job_id] = submitted
        return submitted

    def _site(self, site: Optional[str]):
        try:
            return self.handle.site(site)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"unknown site {site!r}: {exc}") from None

    # -- world verbs -------------------------------------------------------
    def inject(self, count: int = 1, owner: str = "chaos",
               runtime: float = 5.0, interactive: bool = True) -> Dict[str, Any]:
        """Submit ``count`` synthetic jobs through the broker.

        Job ids are pinned (``chaos-NNN``) so injected workloads are
        deterministic across processes and replays.
        """
        if count < 1:
            raise ValueError("inject needs count >= 1")
        injected: List[str] = []
        for _ in range(count):
            n = next(self._inject_counter)
            job = synthetic_job(f"chaos-{n:03d}", owner, runtime,
                                "chaos-load", interactive=interactive)
            submitted = self.handle.submit(
                job, lambda rank: cpu_bound_app(float(runtime)),
                attach_console=False)
            self.track(submitted)
            injected.append(job.job_id)
        return {"injected": injected}

    def kill(self, job: str, reason: str = "steered kill") -> Dict[str, Any]:
        """Cancel a tracked job through the broker's cancel path."""
        submitted = self.jobs.get(job)
        if submitted is None:
            raise ValueError(
                f"unknown job {job!r}; known: {sorted(self.jobs)}")
        if submitted.finished.triggered:
            return {"killed": job, "already_finished": True}
        self.handle.env.process(
            self.handle.broker.cancel(submitted, reason=reason),
            name=f"steer/kill/{job}")
        return {"killed": job, "already_finished": False}

    def drain_site(self, site: Optional[str] = None) -> Dict[str, Any]:
        """Administratively drain a site's LRMS: reject new submissions,
        stop dispatching queued jobs; running jobs finish."""
        target = self._site(site)
        target.lrms.set_drained(True)
        return {"site": target.name, "drained": True}

    def undrain_site(self, site: Optional[str] = None) -> Dict[str, Any]:
        target = self._site(site)
        target.lrms.set_drained(False)
        return {"site": target.name, "drained": False}

    def fail_site(self, site: Optional[str] = None) -> Dict[str, Any]:
        """Open-endedly take down every WAN link of a site's gatekeeper
        (the regional-outage chaos verb)."""
        target = self._site(site)
        downed = self.handle.network.isolate_host(target.gatekeeper_host)
        return {"site": target.name, "failed": True, "links": downed}

    def recover_site(self, site: Optional[str] = None) -> Dict[str, Any]:
        target = self._site(site)
        restored = self.handle.network.restore_host(target.gatekeeper_host)
        return {"site": target.name, "failed": False, "links": restored}

    # -- reads (the `repro serve` summary) ---------------------------------
    def site_rows(self) -> List[Dict[str, Any]]:
        env = self.handle.env
        network = self.handle.network
        rows = []
        for name in sorted(self.handle.testbed.sites):
            site = self.handle.testbed.sites[name]
            lrms = site.lrms
            rows.append({
                "site": name,
                "total": lrms.total_nodes,
                "free": lrms.free_count,
                "running": len(lrms.running),
                "queued": lrms.queue_length,
                "drained": lrms.drained,
                "up": all(link.is_up(env.now)
                          for link in network.links_of(site.gatekeeper_host)),
            })
        return rows

    def job_rows(self) -> List[Dict[str, Any]]:
        rows = []
        for job_id, submitted in self.jobs.items():
            report = submitted.report
            rows.append({
                "job": job_id,
                "owner": submitted.job.owner,
                "stage": job_stage(submitted),
                "site": report.sites[-1] if report.sites else None,
                "resubmissions": report.resubmissions,
            })
        return rows
