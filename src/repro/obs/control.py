"""The sim-loop bridge: scripted chaos replayed between kernel events.

:class:`SimController` installs on the ``Environment.control`` hook
(mirroring ``env.tracer`` / ``env.telemetry``), and the kernel's
observed run loop calls :meth:`SimController.drain` once **between**
event pops.  That drain point is the only place a steering verb runs:

* verbs never run mid-callback, and they execute at a well-defined
  position of the event order, so a :class:`ChaosSchedule` replays
  deterministically: same schedule + same seed = byte-identical run;
* an **idle** controller (no actions left) returns from ``drain()``
  after one comparison without consuming event ids or touching state,
  so an attached-but-idle controller leaves every golden render
  byte-identical.

Steering verbs
--------------
The six verbs — ``inject``, ``kill``, ``drain_site``, ``undrain_site``,
``fail_site``, ``recover_site`` — are delegated to the bound world
adapter (:class:`repro.core.steering.SteeringAdapter`, attached by
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
from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

__all__ = [
    "WORLD_VERBS",
    "ChaosAction",
    "ChaosSchedule",
    "SimController",
    "SteerError",
    "control_scope",
]

#: The steering verbs, each delegated to the bound world adapter.
WORLD_VERBS: Tuple[str, ...] = (
    "inject", "kill", "drain_site", "undrain_site", "fail_site",
    "recover_site",
)


class SteerError(ValueError):
    """A steering verb was malformed or could not be applied."""


def _unknown_verb(verb: str) -> SteerError:
    return SteerError(f"unknown steering verb {verb!r}; choose from "
                      f"{', '.join(WORLD_VERBS)}")


class ChaosAction:
    """One scripted steering verb at a fixed simulation time."""

    __slots__ = ("at", "verb", "args")

    def __init__(self, at: float, verb: str,
                 args: Optional[Mapping[str, Any]] = None) -> None:
        if at < 0:
            raise SteerError(f"action time must be >= 0, got {at}")
        if verb not in WORLD_VERBS:
            raise _unknown_verb(verb)
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


class SimController:
    """The ``env.control`` hook: a cursor over one chaos schedule.

    Created by :func:`control_scope` (one per environment built inside
    the scope) or installed manually with ``SimController(env).install()``.
    """

    def __init__(self, env: "Environment",
                 schedule: Optional[ChaosSchedule] = None) -> None:
        self.env = env
        #: The bound world adapter (None until ``Scenario.build`` attaches
        #: one); verbs raise :class:`SteerError` while unbound.
        self.world: Optional[Any] = None
        #: Deterministic log of every applied verb:
        #: ``{"at": sim_time, "verb": ...}``.
        self.fired: List[Dict[str, Any]] = []
        self._actions: Tuple[ChaosAction, ...] = (
            schedule.actions if schedule is not None else ())
        self._cursor = 0

    def install(self) -> "SimController":
        """Attach this controller to its environment's hook point."""
        self.env.control = self
        return self

    def bind_world(self, adapter: Any) -> None:
        """Attach the steering adapter the verbs delegate to."""
        self.world = adapter

    def drain(self) -> None:
        """Fire the chaos verbs that are due.

        Called by ``Environment._drain_observed`` between event pops.
        MUST stay cheap when idle: one comparison.
        """
        if self._cursor < len(self._actions):
            self._fire_due()

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
            self.apply(action.verb, action.args)

    def apply(self, verb: str,
              args: Optional[Mapping[str, Any]] = None) -> Any:
        """Execute one steering verb *at the drain point*.

        Successful verbs are recorded in :attr:`fired` and emitted as
        ``steer:<verb>`` tracer ring events (Perfetto shows them as
        instants on the steering track); failed verbs leave no record.
        """
        args = dict(args or {})
        result = self._apply(verb, args)
        self.fired.append({"at": self.env.now, "verb": verb})
        tr = self.env.tracer
        if tr is not None:
            tr.event(f"steer:{verb}", **args)
        return result

    def _apply(self, verb: str, args: Dict[str, Any]) -> Any:
        if verb not in WORLD_VERBS:
            raise _unknown_verb(verb)
        if self.world is None:
            raise SteerError(
                f"verb {verb!r} needs a bound world (build through "
                f"Scenario inside a control_scope)")
        return getattr(self.world, verb)(**args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SimController actions={self._cursor}/{len(self._actions)}>"


@contextmanager
def control_scope(schedule: Optional[ChaosSchedule] = None
                  ) -> Iterator[List[SimController]]:
    """Auto-install a controller on every Environment built in this scope.

    Mirrors :func:`repro.obs.telemetry.telemetry_scope`: yields the
    (initially empty) list of controllers in environment-construction
    order.  Each environment gets its *own* controller sharing the
    (immutable) schedule, so multi-environment cells replay the same
    chaos in each world deterministically.
    """
    from ..sim.environment import Environment

    created: List[SimController] = []

    def factory(env: "Environment") -> SimController:
        controller = SimController(env, schedule=schedule)
        created.append(controller)
        return controller

    previous = Environment.control_factory
    Environment.control_factory = factory  # simlint: disable=flow-worker-purity -- restored in finally; the write is scoped to this worker's own cell, never leaks across cells
    try:
        yield created
    finally:
        Environment.control_factory = previous  # simlint: disable=flow-worker-purity -- restores the pre-scope factory (cell-local by construction)
