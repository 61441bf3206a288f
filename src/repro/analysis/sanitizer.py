"""Runtime event/lifecycle sanitizer for the simulation kernel.

``Environment(sanitize=True)`` attaches a :class:`Sanitizer` to the
environment.  The kernel then reports, at ``run()`` exit (and on demand
through :meth:`Sanitizer.report`), the lifecycle hazards that static
analysis cannot see:

* **pending-timer** — a non-daemon :class:`~repro.sim.timers.Timer`
  still armed when the run ended (the PR 3 leak class: a churn site that
  re-armed its timer and never cancelled it on shutdown);
* **orphan-event** — a queue entry whose event was triggered but never
  processed (scheduled work silently cut off);
* **alive-process** — a non-daemon process whose generator never
  terminated (stuck on an event that will never fire, or an unbounded
  service loop that should be marked ``daemon=True``);
* **unhandled-failure** — an event that was failed with *no* registered
  callbacks and was neither processed nor defused: the failure would
  have been raised had the run reached it, or silently lost otherwise.

Daemon semantics mirror threads: service loops that intentionally live
for the whole simulation (MDS refresh, LRMS scheduling cycles,
fair-share sampling) are created with ``daemon=True`` and are exempt
from leak reporting.  Everything else is expected to wind down.

The hooks cost nothing when sanitizing is off: ``env.sanitizer`` is
``None`` and the kernel's hot paths never consult it — only the *cold*
construction/failure paths (``Process.__init__``, ``Timer.__init__``,
``Event.fail``) carry an ``is not None`` check.

Tests can audit whole scenario builds without threading a flag through
every constructor::

    with sanitize_all() as audit:
        run_experiment("fig8", config)
    audit.assert_clean()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.environment import Environment
    from ..sim.events import Event
    from ..sim.process import Process
    from ..sim.timers import Timer

__all__ = ["Leak", "LeakError", "Sanitizer", "SanitizerAudit",
           "SanitizerReport", "sanitize_all"]


class LeakError(AssertionError):
    """Raised by :meth:`Sanitizer.assert_clean` when leaks were found."""


@dataclass(frozen=True)
class Leak:
    """One lifecycle finding."""

    #: ``pending-timer`` | ``orphan-event`` | ``alive-process`` |
    #: ``unhandled-failure``.
    kind: str
    #: Human-oriented description of the leaked object.
    what: str
    #: Extra structured detail (deadline, target, sim time, ...).
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.kind}] {self.what}" + (f" ({extra})" if extra else "")


@dataclass
class SanitizerReport:
    """Structured result of one sanitizer scan."""

    #: Simulation time at which the scan ran.
    at: float
    leaks: List[Leak] = field(default_factory=list)
    #: Non-leak statistics (tombstones collected, daemons exempted, ...).
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.leaks

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for leak in self.leaks:
            counts[leak.kind] = counts.get(leak.kind, 0) + 1
        return counts

    def render(self) -> str:
        head = f"sanitizer report at t={self.at:.6f}: "
        if self.clean:
            return head + "clean"
        lines = [head + f"{len(self.leaks)} leak(s)"]
        lines.extend("  " + leak.render() for leak in self.leaks)
        return "\n".join(lines)


class Sanitizer:
    """Lifecycle tracker attached to one :class:`Environment`.

    Tracks processes, timers, and failed events by strong reference —
    sanitize mode is opt-in diagnostics, and the kernel's event classes
    are ``__slots__``-packed without a ``__weakref__`` slot precisely so
    the *production* configuration stays lean.  Leak classification never
    depends on liveness (a finished process or disarmed timer is simply
    not reported), so strong tracking cannot mask or invent leaks; it
    only bounds sanitized runs' memory by the number of processes,
    timers, and failures, which is fine for test workloads.
    """

    def __init__(self, env: "Environment") -> None:
        # Strong reference: the env <-> sanitizer cycle is gc-collectable,
        # and audit scopes must still be able to scan environments whose
        # builder scope has already returned.  (Tracked *objects* stay
        # weak so tracking never changes what leaks.)
        self._env: Optional["Environment"] = env
        self._processes: List["Process"] = []
        self._timers: List["Timer"] = []
        #: (event, had_callbacks_at_fail, sim time of the fail).
        self._failures: List[Tuple["Event", bool, float]] = []
        #: Report captured automatically at the last ``run()`` exit.
        self.last_report: Optional[SanitizerReport] = None
        audit = _ACTIVE_AUDIT
        if audit is not None:
            audit._register(self)

    # -- kernel hooks (cold paths only) ----------------------------------
    def track_process(self, process: "Process") -> None:
        self._processes.append(process)

    def track_timer(self, timer: "Timer") -> None:
        self._timers.append(timer)

    def note_failure(self, event: "Event") -> None:
        env = self._env
        now = env._now if env is not None else 0.0
        self._failures.append((event, bool(event.callbacks), now))

    def on_run_exit(self) -> None:
        """Called by ``Environment.run()`` when the run loop exits."""
        self.last_report = self.report()

    # -- scanning --------------------------------------------------------
    def report(self) -> SanitizerReport:
        """Scan the environment *now* and return a fresh report."""
        env = self._env
        if env is None:  # pragma: no cover - defensive
            return SanitizerReport(at=0.0)
        report = SanitizerReport(at=env._now)
        leaks = report.leaks
        stats = {"queue_entries": 0, "timer_tombstones": 0,
                 "daemons_exempt": 0}

        # 1. queue residue: pending timers and orphan events.
        for entry in self._queue_entries(env):
            stats["queue_entries"] += 1
            time_, _prio, eid, event = entry
            if event._is_timer:
                # A timer remembers at most one live shot, so at most one
                # queue entry can match ``_shot_eid`` — no dedup needed;
                # every other entry for the same timer is a tombstone.
                if eid != event._shot_eid or event._deadline is None:
                    stats["timer_tombstones"] += 1
                    continue
                if getattr(event, "daemon", False):
                    stats["daemons_exempt"] += 1
                    continue
                leaks.append(Leak(
                    kind="pending-timer",
                    what=f"timer {event.name or '<unnamed>'} still armed",
                    detail={"deadline": event._deadline, "shot_at": time_}))
            else:
                if getattr(event, "daemon", False) \
                        or self._daemon_owned(event):
                    stats["daemons_exempt"] += 1
                    continue
                leaks.append(Leak(
                    kind="orphan-event",
                    what=f"{_describe(event)} scheduled but never "
                         f"processed",
                    detail={"scheduled_for": time_, "eid": eid}))

        # 2. processes that never terminated.
        for process in self._processes:
            if not process.is_alive:
                continue
            if process.daemon:
                stats["daemons_exempt"] += 1
                continue
            target = process.target
            leaks.append(Leak(
                kind="alive-process",
                what=f"process {process.name!r} never terminated",
                detail={"waiting_on": _describe(target)
                        if target is not None else "nothing (running)"}))

        # 3. failed events nobody ever observed.
        for event, had_callbacks, failed_at in self._failures:
            if had_callbacks or event._defused:
                continue
            if event.callbacks is None:
                # Processed: run() either raised or a late callback
                # handled it; not a silent loss.
                continue
            leaks.append(Leak(
                kind="unhandled-failure",
                what=f"{_describe(event)} failed with no callbacks and "
                     f"was never defused",
                detail={"failed_at": failed_at,
                        "error": repr(event._value)}))

        report.stats = stats
        return report

    def _daemon_owned(self, event: Any, depth: int = 0) -> bool:
        """True when no waiter of *event* still needs it at run end.

        A queue entry is exempt from the orphan report when every one of
        its callbacks either

        * resumes **daemon machinery** — the service loop that scheduled
          it is itself exempt, so its pending wake-ups are too; or
        * belongs to an **already-resolved event** — the loser branch of
          an ``AnyOf``: the kernel detaches condition children *lazily*
          (see :mod:`repro.sim.events`), so the losing timeout stays
          scheduled and its ``_check`` no-ops when it eventually pops.
          That entry is kernel bookkeeping, not cut-off work.

        An event with *no* callbacks is never exempt — nobody is
        waiting, which is exactly the orphan case.
        """
        from ..sim.events import PENDING

        if depth > 8:  # defensive: conditions never nest this deep
            return False
        callbacks = getattr(event, "callbacks", None)
        if not callbacks:
            return False
        for cb in callbacks:
            # Waiters register either a bound method (``Condition._check``)
            # or a callable object itself (the kernel registers the
            # ``Process`` directly as its resume callback).
            owner = getattr(cb, "__self__", cb)
            daemon = getattr(owner, "daemon", None)
            if daemon:
                continue
            if daemon is None:
                # Conditions (AllOf/AnyOf) carry no daemon flag of their
                # own.  Resolved ones no longer need this wake-up (lazy
                # detach); pending ones are attributed through to
                # whoever waits on the condition.
                if getattr(owner, "_value", PENDING) is not PENDING:
                    continue
                if self._daemon_owned(owner, depth + 1):
                    continue
            return False
        return True

    @staticmethod
    def _queue_entries(env: "Environment") -> Iterator[Tuple]:
        for entry in env._urgent:
            yield entry
        for entry in env._fifo:
            yield entry
        for entry in env._heap:
            yield entry

    # -- assertions ------------------------------------------------------
    def assert_clean(self) -> SanitizerReport:
        """Fresh scan; raises :class:`LeakError` when anything leaked."""
        report = self.report()
        if not report.clean:
            raise LeakError(report.render())
        return report


def _describe(obj: Any) -> str:
    """Short stable-ish description of an event (class + name if any)."""
    name = getattr(obj, "name", None)
    cls = type(obj).__name__
    return f"{cls}({name})" if name else cls


# -- audit scope: sanitize every Environment built inside a `with` -------
_ACTIVE_AUDIT: Optional["SanitizerAudit"] = None


class SanitizerAudit:
    """Collects the sanitizers of every Environment built in scope."""

    def __init__(self) -> None:
        self._sanitizers: List[Sanitizer] = []

    def _register(self, sanitizer: Sanitizer) -> None:
        self._sanitizers.append(sanitizer)

    @property
    def environments(self) -> int:
        return len(self._sanitizers)

    def reports(self) -> List[SanitizerReport]:
        """Fresh scan of every audited environment (final state)."""
        return [s.report() for s in self._sanitizers]

    def leaks(self) -> List[Leak]:
        out: List[Leak] = []
        for report in self.reports():
            out.extend(report.leaks)
        return out

    def assert_clean(self) -> None:
        reports = self.reports()
        dirty = [r for r in reports if not r.clean]
        if dirty:
            raise LeakError("\n".join(r.render() for r in dirty))


@contextmanager
def sanitize_all() -> Iterator[SanitizerAudit]:
    """Audit scope: every Environment constructed inside is sanitized.

    Flips :attr:`Environment.default_sanitize` for the duration, so
    scenario builders and experiments need no plumbing; nesting is not
    supported (the inner scope would steal the outer's environments).
    """
    global _ACTIVE_AUDIT
    from ..sim.environment import Environment

    if _ACTIVE_AUDIT is not None:
        raise RuntimeError("sanitize_all() scopes do not nest")
    audit = SanitizerAudit()
    _ACTIVE_AUDIT = audit
    saved = Environment.default_sanitize
    Environment.default_sanitize = True
    try:
        yield audit
    finally:
        Environment.default_sanitize = saved
        _ACTIVE_AUDIT = None
