"""Core event types for the discrete-event kernel.

The design follows the classic callback-event model (as popularised by
SimPy): an :class:`Event` is a one-shot promise living inside an
:class:`~repro.sim.environment.Environment`.  Processes yield events to
suspend themselves; when the event is *triggered* it is placed on the event
queue, and when the environment *processes* it every registered callback is
invoked exactly once.

PERF note: ``succeed``/``fail`` and ``Timeout.__init__`` append
queue entries directly to the environment's zero-delay FIFO lane / heap
instead of going through :meth:`Environment.schedule`.  They observe the
scheduling invariants documented in ``sim/environment.py`` (bump ``_eid``,
lane entries carry ``time == env._now``); the resulting
``(time, priority, eid)`` total order is bit-for-bit the order the seed
kernel produced.
"""

from __future__ import annotations

from heapq import heappush
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, List,
                    Optional)

from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

# Scheduling priorities: lower value == handled earlier at equal sim-time.
#: Scripted steering (a chaos action's queue entry): before every URGENT
#: and NORMAL entry of its instant, however late it was scheduled.
STEER = -1
URGENT = 0
NORMAL = 1


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING: Any = _Pending()


class Event:
    """A one-shot occurrence that processes can wait for.

    Lifecycle: *untriggered* -> *triggered* (scheduled, value set) ->
    *processed* (callbacks ran).  ``succeed``/``fail`` trigger the event;
    both may be called at most once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    #: Kernel pop-path discriminator; overridden by :class:`Timer`.
    _is_timer = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"Value of {self!r} is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload the event was triggered with."""
        if self._value is PENDING:
            raise SimulationError(f"Value of {self!r} is not yet available")
        return self._value

    # -- failure bookkeeping -------------------------------------------
    @property
    def defused(self) -> bool:
        """True if a failure was acknowledged (prevents run() from raising)."""
        # getattr: Timeout/Initialize never fail and skip initialising the
        # slot on their flattened construction path.
        return getattr(self, "_defused", False)

    def defuse(self) -> None:
        self._defused = True

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        env._fifo.append((env._now, NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        env = self.env
        # Failure is a cold path: the sanitizer hook lives here (and not
        # in succeed) so the happy path stays untouched.
        sanitizer = env.sanitizer
        if sanitizer is not None:
            sanitizer.note_failure(self)
        self._ok = False
        self._value = exception
        env._eid = eid = env._eid + 1
        env._fifo.append((env._now, NORMAL, eid, self))
        return self

    # -- combinators ----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} object at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 *, _push: Any = heappush, _NORMAL: int = NORMAL) -> None:
        # PERF: flattened Event.__init__ + Environment.schedule — a Timeout
        # is born triggered, so both halves collapse to slot stores plus
        # one queue append (FIFO lane when zero-delay, heap otherwise).
        # ``_defused`` is intentionally left unset: it is only ever read
        # behind a ``not event._ok`` guard and a Timeout is always ok.
        # ``_push``/``_NORMAL`` are call-local bindings of module globals
        # (never pass them); the delay comparisons are fused so the common
        # positive-delay path costs a single float compare.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        if delay > 0.0:
            env._eid = eid = env._eid + 1
            _push(env._heap, (env._now + delay, _NORMAL, eid, self))
        elif delay == 0.0:
            env._eid = eid = env._eid + 1
            env._fifo.append((env._now, _NORMAL, eid, self))
        else:
            # No eid was consumed: a rejected timeout must not perturb the
            # deterministic insertion-id sequence.
            raise ValueError(f"Negative delay {delay}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout({self.delay}) object at {id(self):#x}>"


class Initialize(Event):
    """Starts a newly created :class:`~repro.sim.process.Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any) -> None:
        # PERF: flattened like Timeout; always zero-delay URGENT.
        # ``_defused`` left unset — only read behind ``not _ok`` (see
        # Timeout).
        self.env = env
        self.callbacks = [process]
        self._value = None
        self._ok = True
        env._eid = eid = env._eid + 1
        env._urgent.append((env._now, URGENT, eid, self))


class ConditionValue:
    """Ordered mapping of the events that fired inside a condition.

    Backed by the insertion-ordered ``events`` list (iteration order) plus
    an identity set for O(1) ``in``/``[]`` — the seed implementation
    scanned the list, making ``value[event]`` O(n) and a full readout of
    an n-way :class:`AllOf` O(n^2).
    """

    __slots__ = ("events", "_members")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._members: set = set()

    def add(self, event: Event) -> None:
        self.events.append(event)
        self._members.add(event)

    def __getitem__(self, key: Event) -> Any:
        if key not in self._members:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self._members

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> "Iterator[Event]":
        return iter(self.events)

    def keys(self) -> Iterable[Event]:
        return iter(self.events)

    def values(self) -> Iterable[Any]:
        return (e._value for e in self.events)

    def items(self) -> Iterable[tuple]:
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of events (``&`` / ``|``).

    Fan-in bookkeeping is O(1) per member event: the condition registers
    one ``_check`` callback per member and *leaves it in place* when the
    condition decides.  The seed kernel instead walked every member (and
    recursed into nested conditions) doing ``list.remove`` — quadratic
    when one event feeds many conditions (the paper's §4.3 pattern of one
    shadow fanning out to many Console Agents) and O(n) extra work on
    every wide ``AnyOf``.  A leftover ``_check`` on a decided condition
    is a single O(1) early-return when the member eventually fires; if
    the member *fails* after the condition is decided the failure is
    acknowledged (defused) — the same policy the kernel already applied
    to late losers of an ``AnyOf`` whose winner was pre-triggered.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        # One pass: validate the environment and register/immediately check
        # each member (pre-triggered members count right away).  PERF: the
        # seed made two passes; on a 500-wide fan-in the merged loop halves
        # the construction-time iteration count.
        check = self._check
        for event in self._events:
            if event.env is not env:
                raise ValueError("Events from different environments cannot be mixed")
            callbacks = event.callbacks
            if callbacks is None:
                check(event)
            else:
                callbacks.append(check)

        if not self._events and self._value is PENDING:
            self.succeed(ConditionValue())  # simlint: disable=trigger-in-init -- empty condition: scheduled, not processed; callbacks can still attach

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None and event._value is not PENDING:
                value.add(event)

    def _build_value(self, event: Event) -> None:
        if event._ok:
            value = ConditionValue()
            self._populate_value(value)
            self._ok = True
            self._value = value
            env = self.env
            env._eid = eid = env._eid + 1
            env._fifo.append((env._now, NORMAL, eid, self))

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            # The condition's outcome is already decided; this member lost
            # the race (its `_check` is intentionally left registered —
            # see the class docstring).  Acknowledge a late failure,
            # otherwise Environment.step() re-raises it and crashes the
            # whole run.  PERF: the ok-loser path (every member of a
            # decided fan-in firing later) is two slot loads and a
            # branch; the failure acknowledgement writes the slot
            # directly instead of paying a defuse() frame.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            # Fail the condition with the same exception.
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self._build_value(event)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once every given event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires as soon as any given event fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
