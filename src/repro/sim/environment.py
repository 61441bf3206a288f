"""The simulation environment: clock, two-lane event queue, and run loop.

Kernel hot-path design (the "two-lane scheduler")
-------------------------------------------------
Every scheduled entry is a ``(time, priority, eid)``-ordered 4-tuple
``(time, priority, eid, event)``.  ``eid`` is a strictly increasing
insertion id, so the tuple order is a *total* order and runs are fully
deterministic.  The seed kernel kept one binary heap and paid an
O(log n) sift plus tuple comparison churn for **every** event — including
the zero-delay Initialize/succeed events that dominate broker
matchmaking and streaming chunk traffic.  This kernel splits the queue
into three structures that *jointly* realise the exact same total order:

* ``_urgent`` — a FIFO deque for zero-delay URGENT entries;
* ``_fifo``   — a FIFO deque for zero-delay NORMAL entries;
* ``_heap``   — the binary heap, now only for genuinely timed entries.

A zero-delay entry appended at the current time always carries a larger
``eid`` than everything appended to the same lane before it, and the
clock never moves backwards — so each lane is *internally* sorted by
``(time, priority, eid)`` and the globally next event is simply the
smallest of (at most) three lane heads.  Zero-delay traffic therefore
costs one deque append + one popleft instead of two O(log n) heap
operations, and the heap itself stays smaller, which speeds up the
timed traffic too.

Several producers bypass :meth:`Environment.schedule` and append
directly to the lanes / heap (``Event.succeed``/``fail``/``trigger``,
``Timeout.__init__``, ``Process._resume``, ``Timer.arm``).  The
invariants they must maintain are:

1. bump ``env._eid`` by one and use the new value in the entry;
2. zero-delay entries go to the lane matching their priority with
   ``time == env._now``; anything with a positive delay is heap-pushed;
3. only :class:`~repro.sim.timers.Timer` instances may appear in heap
   entries with ``event._is_timer`` true (lanes never hold timers), so
   the lane pop path stays free of timer bookkeeping.

One order, three encodings
--------------------------
``tests/test_kernel_determinism.py`` holds all of them to one fixture:

* the **fast loop** (:meth:`Environment._drain`): per-event three-head
  selection, queues bound to locals, ``Process._resume`` inlined;
* the **observed loop** (:meth:`Environment._drain_observed`), taken when
  a controller and/or profiler is attached; built on
  :meth:`Environment._pop`, as is :meth:`Environment.step`;
* the **C mirror** of the fast loop (``sim/_speedups.c``, opt-in via
  ``REPRO_SIM_COMPILED=1`` — see ARCHITECTURE.md).

Cancellable timers (lazy tombstones)
------------------------------------
:class:`~repro.sim.timers.Timer` supports ``cancel()`` and re-arming
without O(n) heap surgery: stale heap entries are left in place and
discarded when popped ("tombstones").  The pop path recognises them via
``event._is_timer`` and :func:`_pop_timer_shot`; a tombstone pop does
*not* advance the clock, so cancelled timers are invisible to the
simulation outcome.  See ``sim/timers.py`` for the shot/deadline
protocol.
"""

from __future__ import annotations

import gc
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Event, NORMAL, Timeout, URGENT

Infinity = float("inf")

#: A scheduled queue entry.
Entry = Tuple[float, int, int, Event]


class collector_paused:
    """``with collector_paused():`` — the cyclic collector is off inside.

    A run and a runner cell are *collection epochs* (ARCHITECTURE.md,
    "Memory lifetime"): the message path makes no reference cycles, so a
    collector pass in the middle of one only re-traverses a live world to
    find nothing.  The collector is left exactly as it was found, on
    exceptions too: entered with it already off (nested in another pause,
    or by a caller who disabled it) this does nothing, so the outermost
    pause is the epoch and a disabled collector stays disabled.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: Any) -> None:
        if self._was_enabled:
            gc.enable()


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in *seconds* throughout this project.  Event processing
    order at equal time is (priority, insertion id), which makes runs fully
    deterministic.
    """

    # PERF: the kernel reads/writes ``_now``/``_eid``/the three queues and
    # ``_active_proc`` several times per processed event; slot storage makes
    # each of those accesses a fixed-offset load instead of a dict lookup.
    # ``event``/``timeout`` are *instance* slots holding partials of the
    # constructors (one Python frame cheaper per call than a method).
    __slots__ = ("_now", "_urgent", "_fifo", "_heap", "_eid", "_active_proc",
                 "tracer", "telemetry", "control", "event", "timeout",
                 "sanitizer", "profiler")

    #: Class-level default for the ``sanitize`` flag.  Flipped by
    #: :func:`repro.analysis.sanitizer.sanitize_all` so whole scenario
    #: builds can be audited without threading a flag through every
    #: constructor.
    default_sanitize: bool = False

    #: Class-level default for the ``profile`` flag (same pattern:
    #: :class:`repro.obs.profiler.profile_scope` flips it so whole world
    #: builds get wall-clock profiling without constructor plumbing).
    default_profile: bool = False

    #: When set (a callable ``env -> registry``), every new environment
    #: gets ``factory(env)`` assigned to its ``telemetry`` hook.  Managed
    #: by :func:`repro.obs.telemetry.telemetry_scope`; the kernel itself
    #: never imports obs and never reads the registry.
    telemetry_factory: Optional[Callable[["Environment"], Any]] = None

    #: Same for the ``control`` hook (``env -> controller``).  Managed by
    #: :func:`repro.obs.control.control_scope`.
    control_factory: Optional[Callable[["Environment"], Any]] = None

    def __init__(self, initial_time: float = 0.0, *,
                 sanitize: Optional[bool] = None,
                 profile: Optional[bool] = None) -> None:
        self._now = float(initial_time)
        #: Zero-delay URGENT lane (see module docstring).
        self._urgent: Deque[Entry] = deque()
        #: Zero-delay NORMAL lane.
        self._fifo: Deque[Entry] = deque()
        #: Timed events (and pending timer shots) only.
        self._heap: List[Entry] = []
        self._eid = 0
        self._active_proc: Optional["Process"] = None
        #: Observability hook (see :mod:`repro.obs`).  ``None`` by default;
        #: instrumented layers read this attribute and skip all span and
        #: counter bookkeeping when unset, so tracing has no cost — not
        #: even an allocation — unless a tracer is installed.
        self.tracer: Optional[Any] = None
        #: Telemetry hook (see :mod:`repro.obs.telemetry`).  Same zero-cost
        #: contract as ``tracer``: ``None`` unless a registry is installed,
        #: and instrumented layers read it with
        #: ``t = env.telemetry``/``if t is not None`` — never importing obs.
        factory = Environment.telemetry_factory
        self.telemetry: Optional[Any] = \
            factory(self) if factory is not None else None
        #: Steering/control hook (see :mod:`repro.obs.control`).  Same
        #: zero-cost contract: ``None`` unless a controller is installed;
        #: when set, ``run()`` takes the observed loop, which calls
        #: ``control.drain()`` between events.
        control_factory = Environment.control_factory
        self.control: Optional[Any] = \
            control_factory(self) if control_factory is not None else None
        #: Runtime lifecycle sanitizer (see :mod:`repro.analysis.sanitizer`).
        #: ``None`` unless ``sanitize=True`` (or the class default is
        #: flipped by an audit scope); the kernel's hot paths never touch
        #: it — only the cold construction/failure paths check for it.
        if sanitize is None:
            sanitize = Environment.default_sanitize
        self.sanitizer: Optional[Any] = None
        if sanitize:
            from ..analysis.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self)
        #: Kernel wall-clock profiler (see :mod:`repro.obs.profiler`).
        #: ``None`` unless ``profile=True`` (or the class default is
        #: flipped by :class:`~repro.obs.profiler.profile_scope`); when
        #: set, ``run()`` takes the observed loop, which times callbacks.
        if profile is None:
            profile = Environment.default_profile
        self.profiler: Optional[Any] = None
        if profile:
            from ..obs.profiler import KernelProfiler

            self.profiler = KernelProfiler(self)
        # PERF: partial-bound constructors instead of factory methods —
        # `env.timeout(delay, value=None)` and `env.event()` keep their
        # call signatures but cost one Python frame less per call.
        # `env.timeout` sits on the hottest path of the whole project
        # (one call per simulated delay).  On the compiled lane the
        # partials wrap the C construction paths, which produce genuine
        # Event/Timeout instances with identical slot state and eid
        # consumption.
        if _SPEEDUPS is not None:
            self.event = partial(_SPEEDUPS.make_event, self)
            self.timeout = partial(_SPEEDUPS.make_timeout, self)
        else:
            self.event = partial(Event, self)
            self.timeout = partial(Timeout, self)

    # -- introspection ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process whose generator is currently executing, if any."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled entry (``inf`` if none).

        Note: a pending :class:`Timer` shot that was cancelled or re-armed
        later is still an entry (a lazy tombstone), so ``peek`` may report
        the tombstone's pop time rather than the next *live* event.
        """
        best = self._urgent[0][0] if self._urgent else Infinity
        if self._fifo and self._fifo[0][0] < best:
            best = self._fifo[0][0]
        if self._heap and self._heap[0][0] < best:
            best = self._heap[0][0]
        return best

    def __len__(self) -> int:
        """Number of scheduled entries (including uncollected tombstones)."""
        return len(self._urgent) + len(self._fifo) + len(self._heap)

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` when nothing earlier is pending.

        Control-hook helper: a scripted steering verb due at ``time``
        must observe ``env.now >= time`` even when the next scheduled
        entry lies further in the future (or the queue is empty).  The
        jump is only legal when it cannot reorder events, so an entry
        scheduled before ``time`` raises :class:`ValueError`.
        """
        if time <= self._now:
            return
        if self.peek() < time:
            raise ValueError(
                f"cannot advance to t={time}: an entry is scheduled "
                f"earlier (t={self.peek()})")
        self._now = time

    # -- event factories ---------------------------------------------------
    # ``event()`` and ``timeout(delay, value=None)`` are instance slots set
    # in ``__init__`` (partials of Event/Timeout — see the PERF note there);
    # they behave exactly like the methods they replace.

    def timer(self, callback: Optional[Any] = None,
              name: Optional[str] = None,
              daemon: Optional[bool] = None) -> "Timer":
        """Create an (unarmed) cancellable/re-armable :class:`Timer`.

        ``daemon=True`` marks a service timer that intentionally stays
        armed for the whole simulation (exempt from sanitizer leak
        reports).  The default (``None``) inherits the daemon flag of
        the process creating the timer: helpers of a service loop are
        service machinery themselves.
        """
        if daemon is None:
            active = self._active_proc
            daemon = active.daemon if active is not None else False
        return Timer(self, callback=callback, name=name, daemon=daemon)

    def process(self, generator: "ProcessGenerator",
                name: Optional[str] = None,
                daemon: Optional[bool] = None) -> "Process":
        """Start a new process from a generator function call.

        ``daemon=True`` marks an unbounded service loop (MDS refresh,
        LRMS cycles, ...) that is expected to outlive the run — the
        sanitizer does not report it as an unterminated process.  The
        default (``None``) inherits the spawning process's daemon flag,
        mirroring Unix process groups: children of service loops are
        service machinery, so only the *roots* of the grid
        infrastructure need explicit marks.
        """
        if daemon is None:
            active = self._active_proc
            daemon = active.daemon if active is not None else False
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered event on the queue ``delay`` from now."""
        self._eid = eid = self._eid + 1
        if delay == 0.0:
            if priority == NORMAL:
                self._fifo.append((self._now, NORMAL, eid, event))
                return
            if priority == URGENT:
                self._urgent.append((self._now, URGENT, eid, event))
                return
        heappush(self._heap, (self._now + delay, priority, eid, event))

    def _pop(self) -> Optional[Entry]:
        """Pop the globally next entry, or ``None`` when the queue is empty.

        Timer tombstones are *not* filtered here — callers must route
        entries whose event has ``_is_timer`` through
        :meth:`~repro.sim.timers.Timer._pop_shot`.
        """
        lane, fifo, heap = self._urgent, self._fifo, self._heap
        if fifo and (not lane or fifo[0] < lane[0]):
            lane = fifo
        if lane and not (heap and heap[0] < lane[0]):
            return lane.popleft()
        return heappop(heap) if heap else None

    def step(self) -> None:
        """Process the next event on the queue.

        Lazy timer tombstones are collected silently (they consume queue
        entries but neither advance the clock nor count as the processed
        event); a live timer firing *does* count as one step.
        """
        while True:
            entry = self._pop()
            if entry is None:
                raise EmptySchedule()
            event = entry[3]
            if not event._is_timer:
                break
            if event._pop_shot(entry):
                return  # fired: one event processed (else keep looking)

        self._now = entry[0]
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            # Already processed (trigger-chaining); nothing to do.
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            raise _unhandled(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run up to that simulation time), or an :class:`Event` (run until
        the event fires; its value is returned).

        The cyclic garbage collector is paused while the loop drains (see
        :class:`collector_paused`) unless a controller is attached.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until (={at}) must be greater than the current time")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=NORMAL, delay=at - self._now)

        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed; re-raise stored failures.
                if not until._ok and isinstance(until._value, BaseException):
                    raise until._value
                return until.value
            until.callbacks.append(_stop_simulate)

        # Observed runs stay interpreted: detours, not hot paths.
        try:
            if self.control is not None:
                # Steered runs keep the collector: a live `repro serve`
                # is wall-clock paced for as long as someone watches,
                # with an HTTP thread allocating beside the loop.
                self._drain_observed()
            else:
                with collector_paused():
                    if self.profiler is not None:
                        self._drain_observed()
                    elif _SPEEDUPS is not None:
                        _SPEEDUPS.drain(self)
                    else:
                        self._drain()
        except StopSimulation as stop:
            value = stop.value
        else:
            # Queue drained without the until event firing.
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "No scheduled events left but 'until' event was not "
                    "triggered")
            value = None
        if self.sanitizer is not None:
            self.sanitizer.on_run_exit()
        return value

    def _drain(self) -> None:
        """The fast loop: :meth:`step` inlined until the queue is empty."""
        # PERF: the single hottest loop of the whole project.  The queue
        # structures are bound to locals (no method call, attribute loads
        # or per-event try/except), and the success path of
        # Process._resume is inlined: a Process registers *itself* as the
        # callback, so `cb.__class__ is Process` identifies a waiting
        # process and its generator advances without the _resume frame.
        # Any semantic change must be mirrored in step(), Process._resume
        # (the generic fallback) and sim/_speedups.c (the C transcription
        # of this exact loop).
        urgent, fifo, heap = self._urgent, self._fifo, self._heap
        hpop = heappop
        proc_cls = Process
        while True:
            # -- select + pop the (time, priority, eid)-smallest entry.
            # Lane pops skip the timer check entirely (lanes never hold
            # timers — invariant 3 of the module docstring).
            if urgent or fifo:
                entry = urgent[0] if urgent else None
                if fifo and (entry is None or fifo[0] < entry):
                    entry = fifo[0]
                    if heap and heap[0] < entry:
                        entry = hpop(heap)
                        event = entry[3]
                        if event._is_timer:
                            event._pop_shot(entry)
                            continue
                    else:
                        fifo.popleft()
                        event = entry[3]
                elif heap and heap[0] < entry:
                    entry = hpop(heap)
                    event = entry[3]
                    if event._is_timer:
                        event._pop_shot(entry)
                        continue
                else:
                    urgent.popleft()
                    event = entry[3]
            elif heap:
                entry = hpop(heap)
                event = entry[3]
                if event._is_timer:
                    event._pop_shot(entry)
                    continue
            else:
                return  # queue drained

            self._now = entry[0]
            callbacks = event.callbacks
            if callbacks is None:
                # Already processed (trigger-chaining); clock advanced,
                # nothing else to do — mirrors step().
                continue
            event.callbacks = None
            for cb in callbacks:
                if cb.__class__ is proc_cls and event._ok:
                    # -- inlined Process._resume success fast path.
                    self._active_proc = cb
                    try:
                        next_event = cb._send(event._value)
                    except StopIteration as stop:
                        # Process finished normally.
                        cb._target = None
                        cb._ok = True
                        cb._value = stop.value
                        self._eid = eid = self._eid + 1
                        fifo.append((self._now, NORMAL, eid, cb))
                    except BaseException as exc:
                        # Process died -> fail the process event.
                        cb._target = None
                        cb._ok = False
                        cb._value = exc
                        self._eid = eid = self._eid + 1
                        fifo.append((self._now, NORMAL, eid, cb))
                    else:
                        try:
                            ncb = next_event.callbacks
                        except AttributeError:
                            cb._fail_nonevent(next_event)
                        else:
                            if ncb is not None:
                                # Register + suspend.
                                ncb.append(cb)
                                cb._target = next_event
                            else:
                                # Yielded event already processed:
                                # continue with its stored outcome
                                # through the generic path.
                                cb._resume(next_event)
                    self._active_proc = None
                else:
                    cb(event)

            if not event._ok and not event._defused:
                raise _unhandled(event)

    def _drain_observed(self) -> None:
        """The observed loop: :meth:`_drain` semantics with hook points.

        A controller's ``drain()`` runs once *between* pops — the only
        place steering commands and chaos verbs execute, so they land at
        a deterministic position of the event order, never mid-callback;
        an idle one consumes no event ids.  A profiler times every
        callback and timer shot (fires, deferrals and tombstones alike);
        wall-clock readings never touch simulation state.
        """
        control, prof = self.control, self.profiler
        drain = begin_run = end_run = None
        if control is not None:
            drain = control.drain
            # Optional run boundaries (duck-typed): tell a threaded
            # controller whether commands must queue or may run inline.
            begin_run = getattr(control, "begin_run", None)
            end_run = getattr(control, "end_run", None)
        if prof is not None:
            clock, record = prof.clock, prof.record
            site_of, timer_site = prof.site_of, prof.timer_site
            wall_start = clock()
        if begin_run is not None:
            begin_run()
        try:
            while True:
                # Before the pop, so verbs still due when the queue
                # empties fire (and may schedule events, extending the run).
                if drain is not None:
                    drain()
                entry = self._pop()
                if entry is None:
                    return  # queue drained (post-drain: nothing revived it)
                event = entry[3]
                if event._is_timer:
                    if prof is None:
                        event._pop_shot(entry)
                    else:
                        t0 = clock()
                        event._pop_shot(entry)
                        record(timer_site(event), t0)
                    continue

                self._now = entry[0]
                callbacks = event.callbacks
                if callbacks is None:
                    # Already processed (trigger-chaining) — mirrors step().
                    continue
                event.callbacks = None
                for cb in callbacks:
                    if prof is None:
                        cb(event)
                    else:
                        t0 = clock()
                        try:
                            cb(event)
                        finally:
                            record(site_of(cb), t0)

                if not event._ok and not event._defused:
                    raise _unhandled(event)
        finally:
            if prof is not None:
                prof.run_wall += clock() - wall_start
            if end_run is not None:
                end_run()


def _unhandled(event: Event) -> BaseException:
    """The exception a failed, un-defused event surfaces from the loop."""
    exc = event._value
    if isinstance(exc, BaseException):
        return exc
    return SimulationError(repr(exc))  # pragma: no cover - defensive


def _stop_simulate(event: Event) -> None:
    if not event._ok:
        # The awaited event failed: surface its exception from run().
        event.defuse()
        raise _unhandled(event)
    raise StopSimulation(event._value)


# Re-exported for typing only (the factory methods import lazily to keep
# import order acyclic: events -> timers/process -> environment).
from .process import Process, ProcessGenerator  # noqa: E402  (cycle-free: see note)
from .timers import Timer  # noqa: E402

# Compiled-lane hookup (after every kernel class exists): hand the C
# module the classes, sentinels and slot layouts it mirrors.  `_SPEEDUPS`
# stays None on the interpreted lane — the branches above vanish into
# two pointer checks per Environment.
from ._compiled import SPEEDUPS as _SPEEDUPS  # noqa: E402
from .events import PENDING as _PENDING  # noqa: E402

if _SPEEDUPS is not None:
    _SPEEDUPS._bind({
        "Environment": Environment,
        "Event": Event,
        "Timeout": Timeout,
        "Process": Process,
        "Timer": Timer,
        "SimulationError": SimulationError,
        "PENDING": _PENDING,
        "NORMAL": NORMAL,
        "deque": deque,
    })
