"""The sim-loop bridge: thread-safe steering and scripted chaos.

``repro serve`` runs a simulation on a background thread while an HTTP
server answers from the foreground — but the kernel is single-threaded
and its determinism contract forbids touching simulation state from
another thread.  :class:`SimController` is the bridge: it installs on
the ``Environment.control`` hook (mirroring ``env.tracer`` /
``env.telemetry``), and the kernel's observed run loop calls
:meth:`SimController.drain` once **between** event pops.  Everything the
outside world wants to do — steer the grid, snapshot telemetry, pause
the clock — is packaged as a closure, queued thread-safely, and executed
at that drain point:

* commands never run mid-callback, so telemetry snapshots taken through
  :meth:`call` are always internally consistent (a histogram's count and
  sketch can never be observed half-updated);
* commands execute at a well-defined position of the event order, so a
  *scripted* command stream — a :class:`ChaosSchedule` — replays
  deterministically: same schedule + same seed = byte-identical run;
* an **idle** controller (no commands queued, no schedule, no pacing)
  returns from ``drain()`` after one attribute check without consuming
  event ids or touching state, so an attached-but-idle server leaves
  every golden render byte-identical.

Steering verbs
--------------
Clock verbs are handled by the controller itself: ``pause``, ``resume``,
``step`` (run N more events, then hold again), ``set_rate`` (sim-seconds
per wall-second; 0 = free-run).  World verbs — ``inject``, ``kill``,
``drain_site``, ``undrain_site``, ``fail_site``, ``recover_site`` — are
delegated to the bound world adapter
(:class:`repro.core.steering.SteeringAdapter`, attached by
``Scenario.build()`` whenever a controller is present).  ``repro.obs``
stays isolated: the adapter is *handed in*, never imported.

Chaos schedules
---------------
A :class:`ChaosSchedule` is a list of ``(at, verb, args)`` actions
(see ``docs/chaos-schedules.md`` for the JSON format).  At each drain
the controller fires every action whose time has come — i.e. the next
scheduled event is at or past ``at`` (or the queue is empty), in which
case the clock legally jumps forward via ``env.advance_to`` — so a
regional outage at t=90 lands at the same position of the event order
every single run.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator,
                    List, Mapping, Optional, Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

__all__ = [
    "CLOCK_VERBS",
    "WORLD_VERBS",
    "ChaosAction",
    "ChaosSchedule",
    "SimController",
    "SteerError",
    "control_scope",
]

#: Verbs the controller executes itself (no world adapter required).
CLOCK_VERBS: Tuple[str, ...] = ("pause", "resume", "step", "set_rate")

#: Verbs delegated to the bound world adapter (Scenario-built worlds).
WORLD_VERBS: Tuple[str, ...] = (
    "inject", "kill", "drain_site", "undrain_site", "fail_site",
    "recover_site",
)


class SteerError(ValueError):
    """A steering verb was malformed or could not be applied."""


class ChaosAction:
    """One scripted steering verb at a fixed simulation time."""

    __slots__ = ("at", "verb", "args")

    def __init__(self, at: float, verb: str,
                 args: Optional[Mapping[str, Any]] = None) -> None:
        if at < 0:
            raise SteerError(f"action time must be >= 0, got {at}")
        if verb not in CLOCK_VERBS and verb not in WORLD_VERBS:
            raise SteerError(
                f"unknown steering verb {verb!r}; choose from "
                f"{', '.join(CLOCK_VERBS + WORLD_VERBS)}")
        self.at = float(at)
        self.verb = verb
        self.args: Dict[str, Any] = dict(args or {})

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at": self.at, "verb": self.verb}
        for key in sorted(self.args):
            out[key] = self.args[key]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChaosAction {self.verb}@{self.at:.6g} {self.args!r}>"


class ChaosSchedule:
    """An ordered, validated list of :class:`ChaosAction`.

    Actions are sorted by ``(at, original index)`` — a stable order, so
    two verbs at the same time fire in file order.  The schedule object
    itself is immutable state shared across controllers; each controller
    keeps its own cursor.
    """

    def __init__(self, actions: Sequence[ChaosAction],
                 description: str = "") -> None:
        indexed = list(enumerate(actions))
        indexed.sort(key=lambda pair: (pair[1].at, pair[0]))
        self.actions: Tuple[ChaosAction, ...] = tuple(
            action for _, action in indexed)
        self.description = description

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSchedule":
        version = data.get("version", 1)
        if version != 1:
            raise SteerError(f"unsupported chaos schedule version {version!r}")
        actions = []
        for i, raw in enumerate(data.get("actions", [])):
            if "at" not in raw or "verb" not in raw:
                raise SteerError(
                    f"action #{i} needs 'at' and 'verb' fields: {raw!r}")
            args = {k: v for k, v in raw.items() if k not in ("at", "verb")}
            actions.append(ChaosAction(raw["at"], raw["verb"], args))
        return cls(actions, description=str(data.get("description", "")))

    @classmethod
    def load(cls, path: str) -> "ChaosSchedule":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "description": self.description,
            "actions": [action.to_dict() for action in self.actions],
        }

    def __len__(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChaosSchedule {len(self.actions)} actions>"


class _Command:
    """One queued closure plus its completion box."""

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn: Callable[["SimController"], Any]) -> None:
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[Exception] = None


class SimController:
    """The ``env.control`` hook: command queue, chaos cursor, clock gate.

    Created by :func:`control_scope` (one per environment built inside
    the scope) or installed manually with ``SimController(env).install()``.
    Thread contract: :meth:`drain` runs on the simulation thread only;
    :meth:`call` / :meth:`steer` / :meth:`snapshot` may be called from
    any thread; :meth:`finish` must be called (once) by the owner of the
    simulation thread after ``env.run()`` returns.
    """

    def __init__(self, env: "Environment",
                 schedule: Optional[ChaosSchedule] = None,
                 rate: float = 0.0) -> None:
        self.env = env
        #: The bound world adapter (None until ``Scenario.build`` attaches
        #: one); world verbs raise :class:`SteerError` while unbound.
        self.world: Optional[Any] = None
        #: True once the owner declared the run over (see :meth:`finish`).
        self.finished = False
        #: Deterministic log of every applied verb (scheduled or steered):
        #: ``{"at": sim_time, "verb": ..., "source": "chaos" | "steer"}``.
        self.fired: List[Dict[str, Any]] = []
        self._actions: Tuple[ChaosAction, ...] = (
            schedule.actions if schedule is not None else ())
        self._cursor = 0
        self._cv = threading.Condition()
        self._commands: Deque[_Command] = deque()
        self._paused = False
        self._step_budget = 0
        self._rate = float(rate)
        self._anchor: Optional[Tuple[float, float]] = None
        # True while the kernel's observed loop is live (maintained by
        # begin_run/end_run under the condition lock).  Decides whether
        # call() must queue for the drain point or may execute inline.
        self._running = False
        # Fast-path flag: drain() is a no-op while False.  Maintained
        # under the GIL (plain bool read/write), set by producers on
        # enqueue and recomputed after every full drain.
        self._busy = bool(self._actions) or bool(self._rate)

    # -- installation (simulation thread) --------------------------------
    def install(self) -> "SimController":
        """Attach this controller to its environment's hook point."""
        self.env.control = self
        return self

    def bind_world(self, adapter: Any) -> None:
        """Attach the steering adapter world verbs delegate to."""
        self.world = adapter

    # -- run boundaries (called by Environment._drain_observed) ----------
    def begin_run(self) -> None:
        with self._cv:
            self._running = True

    def end_run(self) -> None:
        """The observed loop exited: release queued callers inline.

        Runs on the simulation thread with the loop stopped, which is
        drain-point-equivalent — commands may execute safely.
        """
        with self._cv:
            self._running = False
            pending = list(self._commands)
            self._commands.clear()
        for cmd in pending:
            self._execute(cmd)

    # -- the kernel-facing drain point (simulation thread) ---------------
    def drain(self) -> None:
        """Run due commands/chaos verbs; hold or pace the clock if asked.

        Called by ``Environment._drain_observed`` between event pops.
        MUST stay cheap when idle: one attribute check.
        """
        if not self._busy:
            return
        if self._commands:
            self._run_commands()
        if self._cursor < len(self._actions):
            self._fire_due()
        if self._paused and not self.finished:
            self._hold()
        elif self._rate and not self.finished:
            self._pace()
        self._busy = (bool(self._commands)
                      or self._cursor < len(self._actions)
                      or self._paused or bool(self._rate))

    def _run_commands(self) -> None:
        while True:
            with self._cv:
                if not self._commands:
                    return
                cmd = self._commands.popleft()
            self._execute(cmd)

    def _execute(self, cmd: _Command) -> None:
        try:
            cmd.result = cmd.fn(self)
        except Exception as exc:  # noqa: BLE001 - transported to the calling thread and re-raised by call()
            cmd.error = exc
        cmd.done.set()

    def _fire_due(self) -> None:
        """Fire every scheduled action whose time has come.

        An action is due when the next scheduled event is at or past its
        ``at`` (the clock may then legally jump to ``at``), including
        when the queue is empty.  Fired verbs may schedule new events
        (inject) — the loop re-peeks each iteration.
        """
        env = self.env
        actions = self._actions
        while self._cursor < len(actions):
            action = actions[self._cursor]
            if env.peek() < action.at:
                return  # an earlier event must be processed first
            self._cursor += 1
            env.advance_to(action.at)
            self.apply(action.verb, action.args, source="chaos")

    def _hold(self) -> None:
        """Block the simulation thread while paused, servicing commands.

        ``resume``/``step`` arrive *as commands*, so the wait loop keeps
        draining the queue; wall-clock waits never touch sim state.
        """
        while True:
            with self._cv:
                if not self._paused or self.finished:
                    return
                if self._step_budget > 0:
                    self._step_budget -= 1
                    return  # admit one event, then hold again
                if not self._commands:
                    self._cv.wait(0.05)
                    continue
                cmd = self._commands.popleft()
            self._execute(cmd)

    def _pace(self) -> None:
        """Slow the run to ``rate`` sim-seconds per wall-second."""
        nxt = self.env.peek()
        if nxt == float("inf"):
            return
        while True:
            rate = self._rate
            if not rate or self._paused or self.finished:
                return
            if self._anchor is None:
                self._anchor = (perf_counter(), self.env.now)
            wall0, sim0 = self._anchor
            deadline = wall0 + (nxt - sim0) / rate
            now = perf_counter()
            if now >= deadline:
                return
            with self._cv:
                if not self._commands:
                    self._cv.wait(min(deadline - now, 0.25))
                    continue
                cmd = self._commands.popleft()
            self._execute(cmd)

    # -- verb dispatch (simulation thread, via drain) ---------------------
    def apply(self, verb: str, args: Optional[Mapping[str, Any]] = None,
              source: str = "steer") -> Any:
        """Execute one steering verb *at the drain point*.

        Do not call from another thread — route through :meth:`steer`.
        Successful verbs are recorded in :attr:`fired` and emitted as
        ``steer:<verb>`` tracer ring events (Perfetto shows them as
        instants on the steering track); failed verbs leave no record.
        """
        args = dict(args or {})
        result = self._apply(verb, args)
        self.fired.append({"at": self.env.now, "verb": verb,
                           "source": source})
        tr = self.env.tracer
        if tr is not None:
            tr.event(f"steer:{verb}", source=source, **args)
            tr.count(f"steer.{verb}")
        return result

    def _apply(self, verb: str, args: Dict[str, Any]) -> Any:
        if verb == "pause":
            self._paused = True
            self._step_budget = 0
            return {"paused": True, "time": self.env.now}
        if verb == "resume":
            self._paused = False
            self._step_budget = 0
            self._anchor = None  # re-anchor pacing after a hold
            return {"paused": False, "time": self.env.now}
        if verb == "step":
            n = int(args.get("events", 1))
            if n < 1:
                raise SteerError("step needs events >= 1")
            self._paused = True
            self._step_budget += n
            return {"paused": True, "stepping": n, "time": self.env.now}
        if verb == "set_rate":
            if "rate" not in args:
                raise SteerError("set_rate needs a 'rate' argument")
            self._rate = float(args["rate"])
            if self._rate < 0:
                raise SteerError("rate must be >= 0 (0 = free-run)")
            self._anchor = None
            return {"rate": self._rate, "time": self.env.now}
        if verb in WORLD_VERBS:
            world = self.world
            if world is None:
                raise SteerError(
                    f"verb {verb!r} needs a bound world (build through "
                    f"Scenario inside a control_scope)")
            try:
                handler = getattr(world, verb)
            except AttributeError:
                raise SteerError(
                    f"world adapter has no handler for {verb!r}") from None
            return handler(**args)
        raise SteerError(
            f"unknown steering verb {verb!r}; choose from "
            f"{', '.join(CLOCK_VERBS + WORLD_VERBS)}")

    # -- thread-safe producer API -----------------------------------------
    def call(self, fn: Callable[["SimController"], Any],
             timeout: float = 30.0) -> Any:
        """Run ``fn(controller)`` at the drain point; return its result.

        While the observed loop is live the closure queues for the
        next drain; when the loop is stopped (between ``env.run()``
        calls, or after :meth:`finish`) it executes inline — the sim
        thread is not consuming events, so there is nothing to race.
        """
        cmd = _Command(fn)
        inline = False
        with self._cv:
            if not self._running:
                inline = True
            else:
                self._commands.append(cmd)
                self._busy = True
                self._cv.notify_all()
        if inline:
            self._execute(cmd)
        else:
            deadline = perf_counter() + timeout
            while not cmd.done.wait(0.05):
                with self._cv:
                    if cmd.done.is_set():
                        break
                    if not self._running and cmd in self._commands:
                        # The loop stopped without draining us (run ended
                        # just after we enqueued): reclaim and run inline.
                        self._commands.remove(cmd)
                        inline = True
                        break
                    if perf_counter() >= deadline:
                        raise SteerError("steering command timed out")
            if inline:
                self._execute(cmd)
        if cmd.error is not None:
            raise cmd.error
        return cmd.result

    def steer(self, verb: str, **args: Any) -> Any:
        """Thread-safe verb execution (what ``POST /steer`` calls)."""
        return self.call(lambda c: c.apply(verb, args))

    def snapshot(self) -> Dict[str, Any]:
        """Drain-point-consistent state snapshot (thread-safe).

        The closure runs between events on the simulation thread, never
        concurrently with a callback — the fix for torn mid-run
        ``Histogram``/``TimeSeries`` reads.
        """
        return self.call(_snapshot_of)

    # -- lifecycle ---------------------------------------------------------
    def finish(self) -> None:
        """Declare the run over; release holds and queued callers.

        Safe from any thread: while the observed loop is still live,
        this only flips the flag (waking ``_hold``/``_pace``) and lets
        the loop's own drain/exit answer the queue; once the loop has
        stopped, leftover commands execute inline here.
        """
        with self._cv:
            self.finished = True
            self._cv.notify_all()
            if self._running:
                return  # the live loop (or its end_run) drains the queue
            pending = list(self._commands)
            self._commands.clear()
        for cmd in pending:
            self._execute(cmd)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<SimController actions={self._cursor}/"
                f"{len(self._actions)} paused={self._paused} "
                f"finished={self.finished}>")


def _snapshot_of(controller: SimController) -> Dict[str, Any]:
    """The closure :meth:`SimController.snapshot` executes at the drain."""
    env = controller.env
    telemetry = env.telemetry
    world = controller.world
    return {
        "time": env.now,
        "finished": controller.finished,
        "fired": list(controller.fired),
        "telemetry": telemetry.snapshot() if telemetry is not None else None,
        "world": world.status() if world is not None else None,
    }


@contextmanager
def control_scope(schedule: Optional[ChaosSchedule] = None,
                  rate: float = 0.0) -> Iterator[List[SimController]]:
    """Auto-install a controller on every Environment built in this scope.

    Mirrors :func:`repro.obs.telemetry.telemetry_scope`: yields the
    (initially empty) list of controllers in environment-construction
    order.  Each environment gets its *own* controller sharing the
    (immutable) schedule, so multi-environment cells replay the same
    chaos in each world deterministically.  On exit every controller is
    finished, so stragglers blocked in ``call()`` are released.
    """
    from ..sim.environment import Environment

    created: List[SimController] = []

    def factory(env: "Environment") -> SimController:
        controller = SimController(env, schedule=schedule, rate=rate)
        created.append(controller)
        return controller

    previous = Environment.control_factory
    Environment.control_factory = factory  # simlint: disable=flow-worker-purity -- restored in finally; the write is scoped to this worker's own cell, never leaks across cells
    try:
        yield created
    finally:
        Environment.control_factory = previous  # simlint: disable=flow-worker-purity -- restores the pre-scope factory (cell-local by construction)
        for controller in created:
            controller.finish()
