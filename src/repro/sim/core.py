"""Discrete-event simulation kernel.

A small, fast, simpy-like engine: simulation logic is written as Python
generator functions ("processes") that yield :class:`Event` objects. The
:class:`Environment` owns the event calendar and advances virtual time.

The kernel is self-contained (no third-party dependencies) and is the
substrate for every hardware and workload model in this repository. Time
is a float; the AccelFlow models use nanoseconds throughout.

Example
-------
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5.0)
...     return "done"
>>> p = env.process(proc(env))
>>> env.run()
>>> env.now
5.0
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Union

__all__ = [
    "Environment",
    "Event",
    "KernelProfile",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StopSimulation",
]

_PENDING = object()

#: Allocates an event without running an ``__init__`` frame; the hot
#: constructors (:meth:`Environment.timeout`, :meth:`Process.__init__`,
#: ``Resource.request``) fill in the slots themselves.
_new = object.__new__


class SimulationError(Exception):
    """Base class for kernel errors."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *pending*, becomes *triggered* once it has a value and
    is scheduled, and is *processed* after its callbacks have run. Events
    may succeed (carrying a value) or fail (carrying an exception).
    """

    __slots__ = ("env", "callbacks", "_value", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: What runs when this event is processed, in order: callables,
        #: invoked with the event, and waiting :class:`Process` objects,
        #: which the event loop resumes inline (no bound method is
        #: allocated per wait and no extra frame runs per resumption).
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[
            List[Union[Callable[["Event"], None], "Process"]]
        ] = []
        self._value: Any = _PENDING
        self._defused = False

    def __repr__(self) -> str:
        state = "pending" if not self.triggered else ("ok" if self.ok else "failed")
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and has been scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return not isinstance(self._value, _Failure)

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        if isinstance(self._value, _Failure):
            return self._value.exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        env = self.env
        env._eid += 1
        env._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._value = _Failure(exception)
        env = self.env
        env._eid += 1
        env._normal.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (already triggered) event."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = event._value
        env = self.env
        env._eid += 1
        env._normal.append(self)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class _Failure:
    """Wrapper marking an event value as an exception."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class Timeout(Event):
    """An event that fires after a fixed delay.

    Built only by :meth:`Environment.timeout`.
    """

    __slots__ = ("delay",)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Immediate event that starts a newly created process.

    Built only by :meth:`Process.__init__`.
    """

    __slots__ = ()


class Process(Event):
    """Wraps a generator so that it executes as a simulation process.

    The process itself is an event that triggers when the generator
    returns (with the generator's return value) or raises (failed).

    While it waits, the process sits in its target event's callback
    list and the event loop resumes it inline, recognising it by its
    exact type — so ``Process`` is not meant to be subclassed.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if type(generator) is not GeneratorType:
            if not hasattr(generator, "send") or not hasattr(generator, "throw"):
                raise TypeError(f"{generator!r} is not a generator")
            name = name or getattr(generator, "__name__", "process")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._defused = False
        self._generator = generator
        self.name = name or generator.__name__
        start = _new(Initialize)
        start.env = env
        start.callbacks = [self]
        start._value = None
        start._defused = False
        env._eid += 1
        env._urgent.append(start)
        #: The event this process is currently waiting for.
        self._target: Optional[Event] = start

    def __repr__(self) -> str:
        return f"<Process {self.name} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not terminated."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (if alive)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The process stops waiting for its current target event and instead
        sees ``Interrupt(cause)`` raised at its current yield point.

        Interrupting a process that has already terminated, or one whose
        previous interrupt has not been delivered yet, is a safe no-op:
        fault-recovery watchdogs and cluster rerouting both race against
        normal completion, and the loser of that race must not blow up
        the simulation (nor double-deliver).
        """
        if not self.is_alive:
            return
        if self is self.env.active_process:
            raise SimulationError("A process is not allowed to interrupt itself")
        if self._target is None:
            # An interrupt is already in flight (the target was detached
            # and the Interrupt event scheduled): collapse duplicates.
            return
        # The event loop delivers the failure like any resumption, and
        # skips it if the process has ended by then (e.g. it completed
        # at the same timestamp the interrupt fired).
        env = self.env
        interrupt_event = Event(env)
        interrupt_event._value = _Failure(Interrupt(cause))
        interrupt_event._defused = True
        interrupt_event.callbacks = [self]
        env._eid += 1
        env._urgent.append(interrupt_event)
        # Stop listening on the old target (if it is still pending).
        target = self._target
        if target.callbacks is not None:
            try:
                target.callbacks.remove(self)
            except ValueError:
                pass
            if not target.callbacks:
                # Nobody is waiting on the target anymore: withdraw it
                # from whatever queue it sits in (store/resource waiter
                # lists) so an interrupted process cannot swallow a slot
                # or an item meant for a live waiter.
                cancel = getattr(target, "cancel", None)
                if cancel is not None:
                    cancel()
        self._target = None


class Condition(Event):
    """An event that triggers once a predicate over child events holds.

    Used through the ``&``/``|`` operators on events or through
    :meth:`Environment.all_of` / :meth:`Environment.any_of`.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._defused = False
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("Condition spans multiple environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events

    def _check(self, event: Event) -> None:
        value = event._value
        if self._value is not _PENDING:
            # The condition already triggered, but late child events still
            # report here. A child that fails *after* the trigger must be
            # defused on the spot — otherwise the unhandled _Failure
            # escapes Environment.step() and crashes run() even though
            # the condition's waiter never sees the loser's result (e.g.
            # an AnyOf whose losing branch errors later).
            if type(value) is _Failure:
                event._defused = True
            return
        self._count += 1
        if type(value) is _Failure:
            event._defused = True
            self.fail(value.exc)
        elif self._evaluate(self._events, self._count):
            self.succeed(
                ConditionValue([e for e in self._events if e.callbacks is None])
            )


class ConditionValue:
    """Result of a condition: the triggered child events, dict-like."""

    __slots__ = ("events",)

    def __init__(self, events: List[Event]):
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConditionValue):
            return self.events == other.events
        return NotImplemented

    def todict(self) -> dict:
        return {event: event.value for event in self.events}


class AllOf(Condition):
    """Condition that triggers once all child events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once any child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)


class KernelProfile:
    """Opt-in simulator self-profiling (events, heap, time attribution).

    Event counts and wall time are attributed per *process group*: a
    process name with trailing digits/dashes stripped, so ``req-17`` and
    ``req-203`` aggregate under ``req``. Non-process callbacks (stop
    hooks, condition checks) aggregate under the event's class name.
    """

    __slots__ = ("events", "peak_queue", "wall_s", "by_process")

    def __init__(self):
        self.events = 0
        self.peak_queue = 0
        self.wall_s = 0.0
        self.by_process: Dict[str, Dict[str, float]] = {}

    @staticmethod
    def group_of(callback: Union[Callable, Process], event: "Event") -> str:
        owner = getattr(callback, "__self__", callback)
        if isinstance(owner, Process):
            return owner.name.rstrip("-0123456789") or owner.name
        return type(event).__name__

    def attribute(self, group: str, elapsed_s: float) -> None:
        row = self.by_process.get(group)
        if row is None:
            row = self.by_process[group] = {"events": 0, "wall_s": 0.0}
        row["events"] += 1
        row["wall_s"] += elapsed_s
        self.wall_s += elapsed_s

    def summary(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "peak_queue": self.peak_queue,
            "wall_s": self.wall_s,
            "by_process": {
                name: dict(row) for name, row in self.by_process.items()
            },
        }


class Environment:
    """The simulation environment: event calendar and virtual clock.

    The calendar runs events in ``(time, priority, eid)`` order: at one
    instant, process starts and interrupts first, then every other
    event, each group in scheduling (``eid``) order. Events due now wait
    in two FIFO lanes, process starts and interrupts in ``_urgent`` and
    the rest in ``_normal`` (a timeout whose ``now + delay == now``
    included); timeouts due later wait in the ``_queue`` heap as
    ``(time, eid, event)``. When the clock advances to a heap entry's
    time, every other heap entry due then moves into the normal lane,
    in eid order, before any callback runs. On the perfbench workloads
    70-76% of events are due at the instant that schedules them, and
    those never touch the heap.

    :meth:`run`, :meth:`step` and :meth:`run_wall_slice` share one event
    loop. Pass ``profile=True`` (or call :meth:`enable_profiling`) to
    collect kernel statistics in :attr:`profile`; disabled profiling
    costs one ``is None`` check per event and two per callback.

    **Runaway guard** (opt-in): ``max_events`` bounds the total number
    of events processed across the environment's life, and
    ``max_wall_s`` bounds the wall-clock time of a single :meth:`run`,
    :meth:`step` or :meth:`run_wall_slice` call. Exceeding either raises
    :class:`SimulationError` instead of spinning forever — a hung
    fault-injection scenario fails fast instead of wedging CI. The
    class attributes :attr:`default_max_events` /
    :attr:`default_max_wall_s` set the default for newly created
    environments (the test suite turns them on globally); both default
    to ``None`` (off: one check per event).
    """

    #: Class-wide defaults for the runaway guard (None = disabled).
    default_max_events: Optional[int] = None
    default_max_wall_s: Optional[float] = None

    def __init__(
        self,
        initial_time: float = 0.0,
        profile: bool = False,
        max_events: Optional[int] = None,
        max_wall_s: Optional[float] = None,
    ):
        #: Current simulated time: a plain attribute that the event loop
        #: writes, so reading the clock runs no property frame.
        self.now = float(initial_time)
        #: ``env.process(generator, name="")`` starts a new process and
        #: ``env.event()`` creates a pending event: the classes bound to
        #: this environment, so neither runs a frame besides the
        #: class's own ``__init__``.
        self.process: Callable[..., Process] = partial(Process, self)
        self.event: Callable[[], Event] = partial(Event, self)
        self._queue: List[tuple] = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: The :class:`KernelProfile`, or None when profiling is off.
        self.profile: Optional[KernelProfile] = KernelProfile() if profile else None
        self.max_events = (
            max_events if max_events is not None else type(self).default_max_events
        )
        self.max_wall_s = (
            max_wall_s if max_wall_s is not None else type(self).default_max_wall_s
        )
        self._events_processed = 0

    def enable_profiling(self) -> KernelProfile:
        """Turn on kernel profiling (keeps existing data if already on).

        Takes effect at the next :meth:`run`, :meth:`step` or
        :meth:`run_wall_slice` call: the event loop snapshots the switch
        when it starts.
        """
        if self.profile is None:
            self.profile = KernelProfile()
        return self.profile

    # -- clock and scheduling ---------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (monotonic).

        Deterministic for a deterministic simulation, so experiments
        use it as a machine-independent work proxy (e.g. the fluid
        tier's event-reduction figures) where wall-clock would make
        golden fixtures unstable.
        """
        return self._eid

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._normal:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def _loop(
        self,
        until: float,
        limit: Optional[int] = None,
        wall_budget_s: Optional[float] = None,
        check_every: int = 256,
    ) -> bool:
        """The event loop behind :meth:`run`, :meth:`step` and
        :meth:`run_wall_slice`.

        Processes the events scheduled at or before ``until`` and stops
        early after ``limit`` events, or once ``wall_budget_s`` of wall
        time has elapsed (checked every ``check_every`` events). Returns
        False when it stopped early with such events still pending; an
        early stop (these two, :class:`StopSimulation` or an unhandled
        failure) leaves the rest of the current instant in its lanes.

        A :class:`Process` in an event's callback list is resumed right
        here instead of through a bound method, so waiting costs no
        allocation and a resumption no extra Python frame. Profiling,
        the runaway guard, ``limit`` and the wall budget are branches
        on locals: switched off, profiling costs one check per event
        and two per callback, the other three one check per event.
        """
        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        profile = self.profile
        max_events = self.max_events
        guard_deadline = (
            perf_counter() + self.max_wall_s if self.max_wall_s is not None else None
        )
        budget_deadline = (
            perf_counter() + wall_budget_s if wall_budget_s is not None else None
        )
        guarded = max_events is not None or guard_deadline is not None
        counted = guarded or limit is not None or budget_deadline is not None
        processed = 0
        while True:
            if urgent:
                event = urgent.popleft()
            elif normal:
                event = normal.popleft()
            elif queue and queue[0][0] <= until:
                now, _, event = heappop(queue)
                self.now = now
                # The rest of this instant's timeouts join the normal
                # lane, in eid order, ahead of anything its callbacks
                # schedule.
                while queue and queue[0][0] == now:
                    normal.append(heappop(queue)[2])
            else:
                return True
            callbacks = event.callbacks
            event.callbacks = None
            if profile is not None:
                profile.events += 1
                pending = len(queue) + len(urgent) + len(normal)
                if pending > profile.peak_queue:
                    profile.peak_queue = pending
            for callback in callbacks:
                if profile is not None:
                    start = perf_counter()
                if type(callback) is not Process:
                    callback(event)
                else:
                    # Resume the waiting process: feed it the event's
                    # value (or throw its failure) until it yields an
                    # event that is still pending, then park it there.
                    self._active_process = callback
                    resumed = event
                    while True:
                        value = resumed._value
                        try:
                            if type(value) is not _Failure:
                                resumed = callback._generator.send(value)
                            elif callback._value is _PENDING:
                                resumed._defused = True
                                resumed = callback._generator.throw(value.exc)
                            else:
                                # An interrupt raced the process's end.
                                break
                            if not isinstance(resumed, Event):
                                raise SimulationError(
                                    f"Process {callback.name} yielded a "
                                    f"non-event: {resumed!r}"
                                )
                        except StopIteration as stop:
                            callback._value = stop.value
                        except BaseException as error:
                            callback._value = _Failure(error)
                        else:
                            waiters = resumed.callbacks
                            if waiters is None:
                                continue  # already processed: feed it back
                            waiters.append(callback)
                            callback._target = resumed
                            break
                        # The generator ended: schedule the process event.
                        callback._target = None
                        self._eid += 1
                        normal.append(callback)
                        break
                    self._active_process = None
                if profile is not None:
                    profile.attribute(
                        KernelProfile.group_of(callback, event),
                        perf_counter() - start,
                    )
            # Failure fast path: most events carry a plain value (often
            # None); one exact-type check rejects those without touching
            # ``_defused``.
            value = event._value
            if type(value) is _Failure and not event._defused:
                # Nobody handled the failure: propagate it to the caller.
                raise value.exc
            if counted:
                processed += 1
                if guarded:
                    self._events_processed += 1
                    if max_events is not None and self._events_processed > max_events:
                        raise SimulationError(
                            f"runaway guard: more than {max_events} events "
                            f"processed (sim time {self.now:.0f})"
                        )
                    # Wall-clock checks are amortized: one perf_counter()
                    # call every 4096 events.
                    if (
                        guard_deadline is not None
                        and self._events_processed % 4096 == 0
                        and perf_counter() > guard_deadline
                    ):
                        raise SimulationError(
                            f"runaway guard: run() exceeded {self.max_wall_s}s "
                            f"wall clock (sim time {self.now:.0f}, "
                            f"{self._events_processed} events)"
                        )
                if processed == limit or (
                    budget_deadline is not None
                    and processed % check_every == 0
                    and perf_counter() > budget_deadline
                ):
                    return not (urgent or normal or (queue and queue[0][0] <= until))

    def step(self) -> None:
        """Process the next scheduled event."""
        if not (self._urgent or self._normal or self._queue):
            raise SimulationError("No scheduled events")
        self._loop(float("inf"), limit=1)

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``None`` — run until no events remain.
        * number — run until the clock reaches that time.
        * :class:`Event` — run until that event is processed and return
          its value. Every waiter on the event is resumed before ``run``
          returns, one that began waiting after this call included.
        """
        stop_at = float("inf")
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: mirror _stop_on — a failed event
                    # raises its exception instead of returning it as a
                    # value (callers must never receive an exception
                    # object where they expect a result).
                    value = until._value
                    if type(value) is _Failure:
                        until._defused = True
                        raise value.exc
                    return value
                waiters = until.callbacks

                def stop_hook(event: Event) -> None:
                    # The loop walks the callback list it detached from
                    # the event. Waiters that joined after this hook sit
                    # behind it, so stop only once they have run.
                    if waiters[-1] is stop_hook:
                        self._stop_on(event)
                    waiters.append(self._stop_on)

                waiters.append(stop_hook)
            else:
                stop_at = float(until)
                if stop_at < self.now:
                    raise ValueError(
                        f"until ({stop_at}) must not be before now ({self.now})"
                    )
        try:
            self._loop(stop_at)
        except StopSimulation as stop:
            return stop.value
        if stop_at != float("inf"):
            self.now = stop_at
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "No scheduled events left but the until-event was not triggered"
            )
        return None

    def run_wall_slice(
        self,
        until: float,
        wall_budget_s: Optional[float] = None,
        check_every: int = 256,
    ) -> bool:
        """Advance toward sim time ``until``, bounded by wall-clock time.

        Processes scheduled events whose time is <= ``until``; when
        ``wall_budget_s`` is given, stops early once that much wall time
        has elapsed (checked every ``check_every`` events, so the
        overhead stays amortized). Returns True when the clock reached
        ``until`` (the clock is then advanced to exactly ``until``, as
        :meth:`run` would), False when the slice ran out of wall budget
        with events still pending.

        This is the incremental entry point the live-serving façade
        paces against wall time (:mod:`repro.serve`): a backlogged sim
        never wedges the asyncio event loop, because each slice hands
        control back after its budget regardless of how many events
        remain. With ``wall_budget_s=None`` it behaves exactly like
        ``run(until=...)`` for a plain time horizon.
        """
        until = float(until)
        if until < self.now:
            raise ValueError(
                f"until ({until}) must not be before now ({self.now})"
            )
        if not self._loop(until, wall_budget_s=wall_budget_s, check_every=check_every):
            return False
        self.now = until
        return True

    def _stop_on(self, event: Event) -> None:
        value = event._value
        if type(value) is _Failure:
            event._defused = True
            raise value.exc
        raise StopSimulation(value)

    # -- event factories ----------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"Negative delay {delay}")
        # Timeouts dominate event allocation: built and scheduled here,
        # with no __init__ frame and no scheduling call.
        event = _new(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._defused = False
        event.delay = delay
        self._eid += 1
        # Tested on the sum, not on ``delay == 0``: a delay smaller than
        # one ulp of the clock is due now too, and joins this instant.
        now = self.now
        at = now + delay
        if at == now:
            self._normal.append(event)
        else:
            heappush(self._queue, (at, self._eid, event))
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of ``events`` has triggered."""
        return AnyOf(self, events)
