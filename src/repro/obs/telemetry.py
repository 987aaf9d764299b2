"""Streaming telemetry: typed events on a bounded pub/sub bus.

The :class:`TelemetryBus` is the one instrumentation spine. Producers
— the fault plane, the recovery plane, orchestrators, the cluster
front door and health plane, the SLO monitor and the experiment
drivers — publish each fact once, as a typed event, *as it happens* in
simulated time; the span tracer and the metrics sampler also stream
closed spans and gauge samples onto it when the streaming plane is on.
Subscribers (the span tracer, the SLO monitor, the flight recorder,
the dashboard, tests) react inline. Publishing is synchronous: the
simulation is single-threaded, so an event is fully handled before the
producer resumes, and an event published while another is being
dispatched (e.g. an :class:`AlertFired` raised by the SLO monitor
inside a :class:`RequestEnd` delivery) nests cleanly.

The bus is bounded: it keeps the last ``capacity`` events in a ring
for late consumers, and overwrites are counted, never silent.

``ObsConfig`` builds a bus whenever tracing or the streaming plane is
on; with the bus absent, every instrumentation point costs one
``is not None`` check — the same zero-cost contract as the rest of the
obs subsystem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

__all__ = [
    "AdmissionEvent",
    "AlertFired",
    "FaultInjected",
    "HealthEvent",
    "Marker",
    "MetricSample",
    "RecoveryEvent",
    "RequestEnd",
    "SpanEnd",
    "TelemetryBus",
    "TelemetryEvent",
]


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@dataclass
class TelemetryEvent:
    """Base of every bus event; ``t_ns`` is the simulated timestamp."""

    t_ns: float

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (used by incident bundles)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        payload.update(self.__dict__)
        return payload


@dataclass
class SpanEnd(TelemetryEvent):
    """A span closed on the tracer (complete spans and instants)."""

    name: str
    track: str
    start_ns: float
    end_ns: float
    req: Optional[int] = None
    cat: str = ""
    args: Optional[Dict[str, Any]] = None


@dataclass
class MetricSample(TelemetryEvent):
    """One gauge sample recorded by the metrics sampler."""

    name: str
    value: float


@dataclass
class FaultInjected(TelemetryEvent):
    """The fault plane injected something (category = emit name)."""

    category: str
    args: Optional[Dict[str, Any]] = None


@dataclass
class RequestEnd(TelemetryEvent):
    """A request reached its terminal state (the SLO datapath signal).

    ``status`` is ``"ok"`` for ordinary completions; the cluster front
    door also publishes ``"shed"`` and ``"lost"`` terminals.
    """

    service: str
    latency_ns: float
    ok: bool
    error: bool = False
    timed_out: bool = False
    fell_back: bool = False
    status: str = "ok"
    #: Front-door request id, when the publisher knows it. The cluster
    #: publishes the id the request *arrived* with (reroute clones keep
    #: reporting under the original), so the serving façade can match a
    #: terminal event back to an awaiting caller.
    rid: Optional[int] = None


@dataclass
class RecoveryEvent(TelemetryEvent):
    """Recovery-plane activity: watchdogs, breakers, CPU degradation.

    ``kind_name`` is one of ``"watchdog-timeout"``, ``"breaker-open"``,
    ``"breaker-close"``, ``"degraded-to-cpu"``.
    """

    kind_name: str
    args: Optional[Dict[str, Any]] = None


@dataclass
class AdmissionEvent(TelemetryEvent):
    """The cluster front door shed or degraded an arriving request."""

    service: str
    decision: str
    #: Front-door request id (same contract as :class:`RequestEnd`).
    rid: Optional[int] = None


@dataclass
class AlertFired(TelemetryEvent):
    """An SLO alert changed state: ``pending``, ``inactive`` (a pending
    alert cancelled before it fired), ``firing`` or ``resolved``."""

    alert: str
    service: str
    state: str
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    args: Optional[Dict[str, Any]] = None


@dataclass
class HealthEvent(TelemetryEvent):
    """A machine's health state changed (``healthy``/``ejected``/``trial``)."""

    machine: int
    state: str
    score: float
    args: Optional[Dict[str, Any]] = None


@dataclass
class Marker(TelemetryEvent):
    """Free-form lifecycle marker (run start/end, fleet membership)."""

    name: str
    args: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
class TelemetryBus:
    """Bounded-ring pub/sub channel for typed telemetry events."""

    def __init__(self, env=None, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        #: Ring of the most recent events (oldest overwritten, counted).
        self.events: deque = deque(maxlen=capacity)
        self.published = 0
        self.overwritten = 0
        #: Event-kind name -> number published (cheap health signal).
        self.counts: Dict[str, int] = {}
        self._subscribers: List[
            Tuple[Callable[[TelemetryEvent], None], Optional[Tuple[type, ...]]]
        ] = []

    # -- subscription ------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[TelemetryEvent], None],
        kinds: Optional[Sequence[Type[TelemetryEvent]]] = None,
    ) -> Callable[[TelemetryEvent], None]:
        """Deliver events synchronously to ``callback``.

        ``kinds`` restricts delivery to the given event classes
        (subclasses included); None delivers everything.
        """
        self._subscribers.append(
            (callback, tuple(kinds) if kinds is not None else None)
        )
        return callback

    def unsubscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        self._subscribers = [
            (cb, kinds) for cb, kinds in self._subscribers if cb is not callback
        ]

    # -- publishing --------------------------------------------------------
    def publish(self, event: TelemetryEvent) -> None:
        """Fan one event out to the ring and the subscribers."""
        self.published += 1
        kind = type(event).__name__
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.events) == self.capacity:
            self.overwritten += 1
        self.events.append(event)
        # Tuple snapshot: a handler may subscribe/unsubscribe mid-dispatch.
        for callback, kinds in tuple(self._subscribers):
            if kinds is None or isinstance(event, kinds):
                callback(event)

    # -- access ------------------------------------------------------------
    def recent(
        self,
        kinds: Optional[Sequence[Type[TelemetryEvent]]] = None,
        since_ns: Optional[float] = None,
    ) -> List[TelemetryEvent]:
        """Events still in the ring, optionally filtered by kind/time."""
        wanted = tuple(kinds) if kinds is not None else None
        out = []
        for event in self.events:
            if wanted is not None and not isinstance(event, wanted):
                continue
            if since_ns is not None and event.t_ns < since_ns:
                continue
            out.append(event)
        return out

    def stats(self) -> Dict[str, float]:
        return {
            "published": float(self.published),
            "overwritten": float(self.overwritten),
            "subscribers": float(len(self._subscribers)),
            **{f"count:{k}": float(v) for k, v in sorted(self.counts.items())},
        }

    def __len__(self) -> int:
        return len(self.events)

