"""Live SLO monitoring: multi-window burn-rate alerts over the bus.

The :class:`SLOMonitor` subscribes to :class:`~repro.obs.telemetry.
RequestEnd` events and keeps, per monitored service, a sliding window
of good/bad outcomes. A request is *bad* when it errored, timed out,
was shed or lost, or — when the target sets a latency SLO — completed
slower than ``latency_ns``. The monitor computes the classic
multi-window burn rate

    burn = (bad fraction of the window) / (1 - availability target)

over a fast and a slow window simultaneously (Google SRE's
multi-window multi-burn-rate recipe, in simulated time). An alert
becomes *pending* when both windows burn past the threshold, *firing*
once the condition has held for ``pending_for_ns``, and *resolved*
after the condition has stayed clear for ``resolve_after_ns`` —
hysteresis in both directions, so a single straggler neither fires nor
flaps an alert.

Each alert transition is published once, as an :class:`~repro.obs.
telemetry.AlertFired` event on the bus (``pending``, ``inactive`` when
a pending alert is cancelled, ``firing``, ``resolved``). The flight
recorder, the dashboard and an attached span tracer (which draws the
firing interval as a span on its ``alerts`` track) all read that one
event; :attr:`SLOMonitor.history` keeps every resolved lifecycle for
post-run inspection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from .telemetry import AlertFired, RequestEnd, TelemetryBus

__all__ = ["Alert", "AlertState", "SLOMonitor", "SLOMonitorConfig", "SLOTarget"]


class AlertState:
    INACTIVE = "inactive"
    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


@dataclass(frozen=True)
class SLOTarget:
    """The objective of one service (or ``"*"`` for any service)."""

    service: str
    #: Availability objective in (0, 1); its complement is the error
    #: budget the burn rate is measured against.
    availability: float = 0.999
    #: Per-request latency SLO; completions slower than this count
    #: against the availability budget (None: only errors count).
    latency_ns: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.availability < 1.0:
            raise ValueError(
                f"availability must be in (0, 1), got {self.availability}"
            )
        if self.latency_ns is not None and self.latency_ns <= 0:
            raise ValueError("latency_ns must be positive when set")

    @property
    def budget(self) -> float:
        return 1.0 - self.availability


@dataclass(frozen=True)
class SLOMonitorConfig:
    """Window geometry and alert hysteresis of one monitor."""

    targets: Tuple[SLOTarget, ...]
    #: Fast window: catches sharp burns (sim nanoseconds).
    fast_window_ns: float = 1e9
    #: Slow window: confirms the burn is sustained.
    slow_window_ns: float = 60e9
    #: Both windows must burn at or past this multiple of the budget.
    burn_threshold: float = 14.4
    #: Ignore windows with fewer outcomes than this (cold start).
    min_events: int = 6
    #: Condition must hold this long before pending promotes to firing.
    pending_for_ns: float = 0.0
    #: Condition must stay clear this long before firing resolves
    #: (None: one fast window).
    resolve_after_ns: Optional[float] = None

    def __post_init__(self):
        if not self.targets:
            raise ValueError("SLOMonitorConfig needs at least one target")
        if self.fast_window_ns <= 0 or self.slow_window_ns <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window_ns > self.slow_window_ns:
            raise ValueError("fast window must not exceed the slow window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        if self.min_events <= 0:
            raise ValueError("min_events must be positive")

    @property
    def resolve_ns(self) -> float:
        if self.resolve_after_ns is not None:
            return self.resolve_after_ns
        return self.fast_window_ns


class Alert:
    """Lifecycle record of one service's burn-rate alert."""

    __slots__ = (
        "name", "service", "state", "pending_since_ns", "fired_at_ns",
        "resolved_at_ns", "peak_burn_fast", "peak_burn_slow",
        "_healthy_since_ns",
    )

    def __init__(self, name: str, service: str):
        self.name = name
        self.service = service
        self.state = AlertState.INACTIVE
        self.pending_since_ns: Optional[float] = None
        self.fired_at_ns: Optional[float] = None
        self.resolved_at_ns: Optional[float] = None
        self.peak_burn_fast = 0.0
        self.peak_burn_slow = 0.0
        self._healthy_since_ns: Optional[float] = None

    def __repr__(self) -> str:
        return f"Alert({self.name!r}, {self.state})"


class _ServiceWindow:
    """Sliding (t_ns, bad) outcome window for one service."""

    __slots__ = ("target", "events", "bad_total")

    def __init__(self, target: SLOTarget):
        self.target = target
        self.events: Deque[Tuple[float, bool]] = deque()
        self.bad_total = 0  # bad count over the retained (slow) window

    def add(self, t_ns: float, bad: bool) -> None:
        self.events.append((t_ns, bad))
        if bad:
            self.bad_total += 1

    def prune(self, now_ns: float, slow_window_ns: float) -> None:
        """Drop outcomes that left the slow window.

        Window membership is ``t > now - window``: an outcome exactly
        one window old has aged out (the edge-alignment contract the
        tests pin down).
        """
        horizon = now_ns - slow_window_ns
        events = self.events
        while events and events[0][0] <= horizon:
            _, bad = events.popleft()
            if bad:
                self.bad_total -= 1

    def burn_rates(
        self, now_ns: float, config: SLOMonitorConfig
    ) -> Tuple[float, float]:
        """(fast, slow) burn rates; 0.0 while a window is under-sampled."""
        self.prune(now_ns, config.slow_window_ns)
        budget = self.target.budget
        slow_n = len(self.events)
        if slow_n >= config.min_events:
            slow = (self.bad_total / slow_n) / budget
        else:
            slow = 0.0
        fast_horizon = now_ns - config.fast_window_ns
        fast_n = fast_bad = 0
        for t_ns, bad in reversed(self.events):
            if t_ns <= fast_horizon:
                break
            fast_n += 1
            if bad:
                fast_bad += 1
        fast = (fast_bad / fast_n) / budget if fast_n >= config.min_events else 0.0
        return fast, slow


class SLOMonitor:
    """Burn-rate alerting subscriber; see the module docstring."""

    def __init__(self, bus: TelemetryBus, config: SLOMonitorConfig):
        self.bus = bus
        self.config = config
        self._exact: Dict[str, SLOTarget] = {}
        self._wildcard: Optional[SLOTarget] = None
        for target in config.targets:
            if target.service == "*":
                self._wildcard = target
            else:
                self._exact[target.service] = target
        self._windows: Dict[str, _ServiceWindow] = {}
        self.alerts: Dict[str, Alert] = {}
        #: Every firing->resolved cycle, in resolution order.
        self.history: List[Alert] = []
        self.events_seen = 0
        bus.subscribe(self._on_request, kinds=(RequestEnd,))

    # -- classification ----------------------------------------------------
    def target_for(self, service: str) -> Optional[SLOTarget]:
        target = self._exact.get(service)
        if target is None:
            target = self._wildcard
        return target

    def is_bad(self, event: RequestEnd, target: SLOTarget) -> bool:
        if not event.ok:
            return True
        if target.latency_ns is not None and event.latency_ns > target.latency_ns:
            return True
        return False

    # -- event handling ----------------------------------------------------
    def _on_request(self, event: RequestEnd) -> None:
        target = self.target_for(event.service)
        if target is None:
            return
        self.events_seen += 1
        window = self._windows.get(event.service)
        if window is None:
            window = _ServiceWindow(target)
            self._windows[event.service] = window
        window.add(event.t_ns, self.is_bad(event, target))
        self.sweep(event.t_ns)

    def sweep(self, now_ns: float) -> None:
        """Re-evaluate every monitored service at ``now_ns``.

        Called on each outcome, and callable explicitly (e.g. at the
        end of a run) so quiet services can still resolve.
        """
        for service, window in self._windows.items():
            fast, slow = window.burn_rates(now_ns, self.config)
            self._advance(service, fast, slow, now_ns)

    # -- alert lifecycle ---------------------------------------------------
    def _alert(self, service: str) -> Alert:
        alert = self.alerts.get(service)
        if alert is None:
            alert = Alert(f"slo-burn:{service}", service)
            self.alerts[service] = alert
        return alert

    def _advance(
        self, service: str, fast: float, slow: float, now_ns: float
    ) -> None:
        config = self.config
        alert = self._alert(service)
        burning = fast >= config.burn_threshold and slow >= config.burn_threshold
        if burning:
            alert.peak_burn_fast = max(alert.peak_burn_fast, fast)
            alert.peak_burn_slow = max(alert.peak_burn_slow, slow)
        if alert.state == AlertState.INACTIVE:
            if burning:
                alert.state = AlertState.PENDING
                alert.pending_since_ns = now_ns
                self._transition(alert, AlertState.PENDING, fast, slow, now_ns)
                # A zero pending hold promotes immediately.
                self._advance(service, fast, slow, now_ns)
        elif alert.state == AlertState.PENDING:
            if not burning:
                alert.state = AlertState.INACTIVE
                alert.pending_since_ns = None
                self._transition(alert, AlertState.INACTIVE, fast, slow, now_ns)
            elif now_ns - alert.pending_since_ns >= config.pending_for_ns:
                alert.state = AlertState.FIRING
                alert.fired_at_ns = now_ns
                alert._healthy_since_ns = None
                self._transition(alert, AlertState.FIRING, fast, slow, now_ns)
        elif alert.state == AlertState.FIRING:
            if burning:
                alert._healthy_since_ns = None
            else:
                if alert._healthy_since_ns is None:
                    alert._healthy_since_ns = now_ns
                if now_ns - alert._healthy_since_ns >= config.resolve_ns:
                    alert.resolved_at_ns = now_ns
                    alert.state = AlertState.RESOLVED
                    self._transition(alert, AlertState.RESOLVED, fast, slow, now_ns)
                    self.history.append(alert)
                    # A fresh Alert object tracks any future burn.
                    del self.alerts[service]

    def _transition(
        self, alert: Alert, state: str, fast: float, slow: float, now_ns: float
    ) -> None:
        self.bus.publish(
            AlertFired(
                t_ns=now_ns,
                alert=alert.name,
                service=alert.service,
                state=state,
                burn_fast=fast,
                burn_slow=slow,
            )
        )

    # -- access ------------------------------------------------------------
    def firing(self) -> List[Alert]:
        """Alerts currently in the firing state."""
        return [a for a in self.alerts.values() if a.state == AlertState.FIRING]

    def fired_ever(self) -> List[Alert]:
        """Every alert that reached firing (resolved or still open)."""
        return self.history + self.firing()

    def stats(self) -> Dict[str, float]:
        return {
            "events_seen": float(self.events_seen),
            "firing": float(len(self.firing())),
            "resolved": float(len(self.history)),
        }
