"""Object stores: FIFO message queues for inter-process communication.

:class:`Store` is the kernel's channel abstraction — the network layer and
every mailbox in the grid substrate is built on it.  :class:`FilterStore`
additionally lets getters wait for items matching a predicate, which the
broker uses for matchmaking mailboxes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


# Construction only builds the request; ``Store.put`` / ``Store.get``
# trigger it afterwards (an event must not fire inside its own
# ``__init__``).  ``Event.__init__`` is written out here: one frame per
# message instead of two.

class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item


class StoreGet(Event):
    __slots__ = ("filter", "_cancelled")

    def __init__(self, env: "Environment",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.filter = filter
        self._cancelled = False

    def cancel(self) -> None:
        """Withdraw an unfired get request (used for timeouts on receive)."""
        if not self.triggered:
            # The store holds a reference; remove lazily via flag.
            self._cancelled = True


class Store:
    """FIFO store of Python objects with optional capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.items: Deque[Any] = deque()
        # Wait queues are deques: the settle loop always consumes from the
        # head (FIFO), and a list head-pop is O(n) per wakeup.  Order is
        # unchanged — deque append/popleft preserves arrival order exactly.
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Deposit ``item``; the event fires once there is room."""
        put = StorePut(self.env, item)
        if self._putters or len(self.items) >= self._capacity:
            self._putters.append(put)
            self._settle()
        else:
            # Room and nobody queued ahead: admit directly.  The put fires
            # before any getter it satisfies, as in ``_settle``.
            self.items.append(item)
            put.succeed()
            if self._getters:
                self._settle()
        return put

    def get(self) -> StoreGet:
        """Withdraw the oldest item; the event fires when one is available."""
        return self._request(StoreGet(self.env))

    # -- internals --------------------------------------------------------
    def _request(self, getter: StoreGet) -> StoreGet:
        if self._getters or self._putters:
            self._getters.append(getter)
            self._settle()
        elif not self._match(getter):
            # Nobody waits on either side, so a miss changes nothing else.
            self._getters.append(getter)
        return getter

    def _match(self, getter: StoreGet) -> bool:
        """Try to satisfy ``getter`` from current items.  FIFO order."""
        if self.items:
            getter.succeed(self.items.popleft())
            return True
        return False

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move queued puts into the store while there is room.
            while self._putters and len(self.items) < self._capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve waiting getters (FIFO; unserved ones are re-queued in
            # their original relative order).
            remaining: Deque[StoreGet] = deque()
            for getter in self._getters:
                if getter._cancelled or getter.triggered:
                    progress = True
                    continue
                if self._match(getter):
                    progress = True
                else:
                    remaining.append(getter)
            self._getters = remaining


class FilterStore(Store):
    """Store whose getters may demand items satisfying a predicate."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return self._request(StoreGet(self.env, filter))

    def _match(self, getter: StoreGet) -> bool:
        if getter.filter is None:
            return super()._match(getter)
        for i, item in enumerate(self.items):
            if getter.filter(item):
                del self.items[i]
                getter.succeed(item)
                return True
        return False
