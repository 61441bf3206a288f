"""World-side handlers for the chaos steering verbs.

:class:`SteeringAdapter` wraps a built :class:`repro.scenario.ScenarioHandle`
and implements the steering verbs — ``inject``, ``kill``, ``drain_site``,
``undrain_site``, ``fail_site``, ``recover_site`` — plus the
``site_rows()`` / ``job_rows()`` reads ``repro serve`` summarises.
Inside a :func:`repro.obs.control.control_scope`, ``Scenario.build()``
constructs one per world, queues the scope's chaos schedule through
:meth:`SteeringAdapter.replay` and hands the adapter to the scope;
experiments and examples never instantiate it directly
(``tests/test_import_boundary.py`` checks this, like the broker classes).

Each chaos action is a kernel event of priority ``STEER``: its callback
runs from the run loop like any other, before everything else at its
instant, so the handlers may mutate world state freely.  Verb methods
return JSON-able dicts describing what they changed.  G-Monitor
(cs/0302007) is the model: the portal steers jobs through the broker's
own verbs rather than reaching into resources behind its back.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..sim import STEER
from ..workloads import cpu_bound_app, synthetic_job
from .status import job_stage

if TYPE_CHECKING:  # pragma: no cover - typing only (scenario is a
    # higher layer; the handle is handed in by Scenario.build)
    from ..obs.control import ChaosAction, ChaosSchedule
    from ..scenario import ScenarioHandle
    from ..sim import Event
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
        #: Every chaos action applied, in order: ``{"at": sim_time,
        #: "verb": ...}``.  An action that fails leaves no record.
        self.fired: List[Dict[str, Any]] = []
        self._inject_counter = itertools.count()

    # -- chaos replay ------------------------------------------------------
    def replay(self, schedule: "ChaosSchedule") -> None:
        """Queue each action as a ``STEER`` entry at its ``at``.

        The entry sorts before every other entry of its instant, however
        late that one was scheduled, so the action sees the world as it
        was when the clock reached ``at``.
        """
        env = self.handle.env
        for action in schedule.actions:
            entry = env.event()
            entry.callbacks.append(partial(self._fire, action))
            env.schedule(entry, STEER, action.at - env.now)

    def _fire(self, action: "ChaosAction", _entry: "Event") -> None:
        """Apply one action (its entry's callback), log it and emit a
        ``steer:<verb>`` tracer event."""
        try:
            getattr(self, action.verb)(**action.args)
        except (TypeError, ValueError) as exc:
            from ..obs.control import SteerError

            raise SteerError(f"chaos action {action.verb} at "
                             f"t={action.at:g}: {exc}") from None
        env = self.handle.env
        self.fired.append({"at": env.now, "verb": action.verb})
        if env.tracer is not None:
            env.tracer.event(f"steer:{action.verb}", **action.args)

    # -- bookkeeping -------------------------------------------------------
    def track(self, submitted: "SubmittedJob") -> "SubmittedJob":
        """Register a driver-submitted job so ``kill`` and ``job_rows``
        can see it.  Returns the job unchanged (chainable)."""
        self.jobs[submitted.job.job_id] = submitted
        return submitted

    def _site(self, site: Optional[str]):
        try:
            return self.handle.site(site)
        except KeyError:
            raise ValueError(
                f"unknown site {site!r}; known: "
                f"{', '.join(sorted(self.handle.testbed.sites))}") from None

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
