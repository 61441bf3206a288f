"""Scripted chaos: steering verbs replayed at fixed simulation times.

A :class:`ChaosSchedule` is a list of ``(at, verb, args)`` actions (see
``docs/chaos-schedules.md`` for the JSON format).  Inside a
:func:`control_scope`, ``Scenario.build()`` binds a world adapter
(:class:`repro.core.steering.SteeringAdapter`) and queues each action on
the environment as an entry ``(at, STEER, eid)``.  ``STEER`` sorts
before every URGENT and NORMAL entry, so an action fires before anything
else at its instant — a regional outage at
t=90 lands at the same position of the event order every run, on every
run loop, and a steered run is exactly as deterministic as an unsteered
one.  The kernel has no steering hook: the actions are just events.

The six verbs — ``inject``, ``kill``, ``drain_site``, ``undrain_site``,
``fail_site``, ``recover_site`` — are the adapter's methods.
``repro.obs`` stays isolated: it only hands the scope to
``Scenario.build`` and never imports the adapter.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "WORLD_VERBS",
    "ChaosAction",
    "ChaosSchedule",
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
    itself is immutable state shared by every world it steers.
    """

    #: The innermost active :func:`control_scope` as ``(schedule, steered
    #: worlds)``; ``Scenario.build`` reads it.  ``None`` outside a scope.
    scope: Optional[Tuple["ChaosSchedule", List[Any]]] = None

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


@contextmanager
def control_scope(schedule: Optional[ChaosSchedule] = None
                  ) -> Iterator[List[Any]]:
    """Steer every world ``Scenario.build`` makes inside this scope.

    Each build binds a :class:`repro.core.steering.SteeringAdapter`,
    queues the schedule's actions on its environment as ``STEER``
    entries and appends the adapter (with its ``fired`` log) to the
    yielded list, in build order.  Worlds share the (immutable)
    schedule, so multi-world cells replay the same chaos in each.  An
    environment built any other way is not steered.
    """
    if schedule is None:
        schedule = ChaosSchedule(())
    steered: List[Any] = []
    previous = ChaosSchedule.scope
    ChaosSchedule.scope = (schedule, steered)
    try:
        yield steered
    finally:
        ChaosSchedule.scope = previous
