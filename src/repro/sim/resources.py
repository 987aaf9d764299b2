"""Shared-resource primitives built on the simulation kernel.

:class:`Resource` models a pool of identical servers with a FIFO wait
queue; :class:`PriorityResource` serves waiters lowest-priority-value
first. Both are used throughout the hardware models (CPU cores, PEs,
dispatchers, DMA engines, network links).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional

from .core import _PENDING, Environment, Event, _new

__all__ = ["Resource", "PriorityResource", "Request", "Release"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Built only by :meth:`Resource.request`. Usable as a context manager
    so the claim is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "priority", "key")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        resource = self.resource
        try:
            resource.users.remove(self)
        except ValueError:
            # Not a user: withdraw from the wait queue if still there.
            resource._dequeue(self)
            return
        if resource.queue:
            resource._grant_next()

    def cancel(self) -> None:
        """Release the claim (or withdraw it if still queued)."""
        self.__exit__(None, None, None)


class Release(Event):
    """Immediate event confirming a release (kept for API symmetry)."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.request = request
        request.cancel()
        self.succeed()


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[Request] = []
        #: FIFO wait queue; a deque so grants are O(1) popleft instead
        #: of the O(n) ``list.pop(0)`` the kernel used to pay per grant.
        self.queue: deque = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of servers currently in use."""
        return len(self.users)

    def request(self, priority: int = 0) -> Request:
        """Claim one server; the returned event triggers when granted."""
        env = self.env
        request = _new(Request)
        request.env = env
        request.callbacks = []
        request._defused = False
        request.resource = self
        request.priority = priority
        if len(self.users) < self._capacity:
            # Uncontended: grant inline (Event.succeed, unrolled).
            self.users.append(request)
            request._value = None
            env._eid += 1
            env._normal.append(request)
        else:
            request._value = _PENDING
            self._enqueue(request)
        return request

    def release(self, request: Request) -> Release:
        """Release a previously granted claim."""
        return Release(self, request)

    # -- internal ---------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _dequeue(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self._pop_next()
            if nxt is None:
                return
            self.users.append(nxt)
            nxt.succeed()

    def _pop_next(self) -> Optional[Request]:
        if not self.queue:
            return None
        return self.queue.popleft()


class PriorityResource(Resource):
    """Resource whose queue is served lowest ``priority`` value first.

    Ties break FIFO (by request creation order).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._heap: List[tuple] = []
        self._order = 0

    def _enqueue(self, request: Request) -> None:
        self._order += 1
        request.key = (request.priority, self._order)
        heapq.heappush(self._heap, (request.key, request))
        self.queue.append(request)

    def _dequeue(self, request: Request) -> None:
        super()._dequeue(request)
        # Lazily ignore withdrawn entries when popping.

    def _pop_next(self) -> Optional[Request]:
        while self._heap:
            _, request = heapq.heappop(self._heap)
            if request in self.queue:
                self.queue.remove(request)
                return request
        return None
