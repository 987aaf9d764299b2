"""Buffered producer/consumer channels for the simulation kernel.

:class:`Store` is a bounded FIFO buffer of arbitrary items with blocking
``put``/``get``, and :class:`PriorityStore` pops the smallest item first.
The hardware queues of the accelerator models are built on these.

Performance notes
-----------------
Waiter queues and the FIFO item buffer are :class:`collections.deque`:
``_dispatch`` serves waiters with O(1) ``popleft`` instead of the O(n)
``list.pop(0)`` that used to dominate store-contention profiles (every
queued put/get shifted the whole waiter array). :class:`PriorityStore`
keeps a plain list because ``heapq`` requires one. A store's two
storage operations are C functions held on its class (``_insert`` and
``_extract``: ``deque.append`` and ``deque.popleft``, or ``heappush``
and ``heappop``, each called with the item buffer first), so storing
or taking an item runs no Python frame and costs no per-store object.
See ``docs/performance.md`` and ``benchmarks/bench_kernel.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from .core import Environment, Event
from .core import _PENDING  # kernel-internal sentinel, shared in-package

__all__ = ["Store", "PriorityStore", "PriorityItem"]


class StorePut(Event):
    """Pending put: triggers when the item has been accepted."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any):
        # Event.__init__ is inlined: puts/gets are the second-hottest
        # allocation in the kernel after Timeout.
        env = store.env
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._defused = False
        self.item = item
        self.store = store
        # The store is dispatched to fixpoint after every mutation, so
        # on entry here either the buffer has room and no puts are
        # queued, or it is full. A put into a full store cannot make
        # progress — park it without paying for a dispatch pass.
        items = store.items
        if len(items) >= store.capacity:
            store._put_waiters.append(self)
        elif not store._put_waiters:
            # Room and no queued puts: accept immediately (inlined
            # succeed), then only dispatch if a getter may now be
            # servable.
            store._insert(items, item)
            self._value = None
            env._eid += 1
            env._normal.append(self)
            if store._get_waiters:
                store._dispatch()
        else:
            store._put_waiters.append(self)
            store._dispatch()

    def cancel(self) -> None:
        """Withdraw the pending put (no-op once the item was accepted).

        Called by :meth:`repro.sim.Process.interrupt` when the waiting
        process is torn down, so an abandoned put never lands later.
        """
        if not self.triggered:
            try:
                self.store._put_waiters.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    """Pending get: triggers with the retrieved item."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        env = store.env
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._defused = False
        self.store = store
        # Mirror of the StorePut fast path: a get from a non-empty store
        # is served inline; dispatch only runs when the extraction freed
        # capacity a queued put was waiting for. An unservable get
        # cannot unblock anything (an empty buffer means every
        # admissible put was already admitted), so it parks without a
        # dispatch pass.
        if store.items:
            self._value = store._extract(store.items)
            env._eid += 1
            env._normal.append(self)
            if store._put_waiters:
                store._dispatch()
        else:
            store._get_waiters.append(self)

    def cancel(self) -> None:
        """Withdraw the pending get; return an already-granted item.

        If the get was already served but its value never consumed (the
        waiter was interrupted in the same instant), the item is pushed
        back so capacity-token stores (e.g. the RELIEF admission queue)
        do not leak slots.
        """
        if not self.triggered:
            try:
                self.store._get_waiters.remove(self)
            except ValueError:
                pass
        elif self.ok:
            store = self.store
            store._insert(store.items, self.value)
            # The returned item consumes capacity again; only a waiting
            # getter can make progress on it.
            if store._get_waiters:
                store._dispatch()


class Store:
    """Bounded FIFO buffer with blocking put/get.

    ``items`` is a :class:`collections.deque` (ordered oldest first);
    compare against lists with ``list(store.items)``.
    """

    #: The storage policy: the item buffer's type, and the operations
    #: that store an item in it and take the next one out, called as
    #: ``_insert(items, item)`` and ``_extract(items)``.
    _new_items = deque
    _insert = staticmethod(deque.append)
    _extract = staticmethod(deque.popleft)

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items = self._new_items()
        self._put_waiters: deque = deque()
        self._get_waiters: deque = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Add ``item``; the returned event triggers once accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove an item; the returned event triggers with it."""
        return StoreGet(self)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: returns False if the buffer is full."""
        if len(self.items) >= self.capacity:
            return False
        self._insert(self.items, item)
        # Inserting consumes capacity, so queued puts cannot progress;
        # only a waiting getter can.
        if self._get_waiters:
            self._dispatch()
        return True

    def try_get(self) -> Any:
        """Non-blocking get: returns None if empty."""
        if not self.items:
            return None
        item = self._extract(self.items)
        # Extracting frees capacity, so only queued puts can progress.
        if self._put_waiters:
            self._dispatch()
        return item

    def remove(self, item: Any) -> bool:
        """Remove a specific item (identity match), unblocking putters."""
        items = self.items
        for index, existing in enumerate(items):
            if existing is item:
                del items[index]
                if self._put_waiters:
                    self._dispatch()
                return True
        return False

    # -- waiter matching ----------------------------------------------------
    def _dispatch(self) -> None:
        # Getters are served strictly in arrival order, so both waiter
        # queues drain with O(1) popleft. Admitting a put can unblock a getter
        # and vice versa, hence the outer progress loop. Event.succeed
        # is inlined (queued waiters are pending by construction, so
        # the already-triggered check is skipped).
        items = self.items
        put_waiters = self._put_waiters
        get_waiters = self._get_waiters
        capacity = self.capacity
        env = self.env
        normal = env._normal
        insert = self._insert
        extract = self._extract
        eid = env._eid
        while True:
            progress = False
            while put_waiters and len(items) < capacity:
                putter = put_waiters.popleft()
                insert(items, putter.item)
                putter._value = None
                eid += 1
                normal.append(putter)
                progress = True
            while get_waiters and items:
                getter = get_waiters.popleft()
                getter._value = extract(items)
                eid += 1
                normal.append(getter)
                progress = True
            if not progress:
                env._eid = eid
                return


class PriorityItem:
    """Wrap an arbitrary item with an orderable priority key."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, PriorityItem):
            return self.priority == other.priority and self.item == other.item
        return NotImplemented

    def __repr__(self) -> str:
        return f"PriorityItem(priority={self.priority!r}, item={self.item!r})"


class PriorityStore(Store):
    """Store that pops the smallest item first (heap ordered)."""

    # heapq requires a list, kept in heap order by its two operations.
    _new_items = list
    _insert = staticmethod(heapq.heappush)
    _extract = staticmethod(heapq.heappop)

    def remove(self, item: Any) -> bool:
        """Heap-preserving remove (identity match).

        The base implementation deletes an arbitrary position, which
        breaks the heap invariant and makes later ``heappop`` calls
        return non-minimal items; here the hole is back-filled with the
        last element and the heap re-established.
        """
        items = self.items
        for index, existing in enumerate(items):
            if existing is item:
                last = items.pop()
                if index < len(items):
                    items[index] = last
                    heapq.heapify(items)
                if self._put_waiters:
                    self._dispatch()
                return True
        return False
