"""Object stores: FIFO mailboxes for inter-process communication.

:class:`Store` is the kernel's channel abstraction: every connection end,
listener backlog, console outbox and stdin queue of the network and grid
layers is one.  A Store is unbounded and first-come first-served, so a
put never waits; contention between jobs is modelled above the kernel:
worker-node ownership and LRMS queues in ``repro.grid``, VM slots in
``repro.multiprog`` and leases in ``repro.core``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment


# Construction only builds the request (``Event.__init__``, one frame);
# ``Store.put`` / ``Store.get`` trigger it afterwards (an event must not
# fire inside its own ``__init__``).

class StorePut(Event):
    __slots__ = ()


class StoreGet(Event):
    __slots__ = ()


class Store:
    """Unbounded FIFO store of Python objects."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        # Plain lists, not deques: an empty deque is 760 bytes and an empty
        # list 56, and a world keeps thousands of Stores alive (one per
        # connection end and listener).  The queues stay short — a few
        # items, at most one waiting getter — so ``pop(0)`` moves a few
        # pointers (ARCHITECTURE.md, "What a Store costs").  At most one of
        # the two is non-empty: a put with a getter waiting hands its item
        # straight over.
        self.items: List[Any] = []
        self._getters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Deposit ``item``; the put fires at once, before the getter it
        wakes."""
        put = StorePut(self.env)
        put.succeed()
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)
        return put

    def get(self) -> StoreGet:
        """Withdraw the oldest item; the event fires when one is available."""
        getter = StoreGet(self.env)
        if self.items:
            getter.succeed(self.items.pop(0))
        else:
            self._getters.append(getter)
        return getter
