"""Incident flight recorder: ring-buffered evidence capture.

The :class:`FlightRecorder` subscribes to *everything* on the telemetry
bus and keeps the last ``capacity`` events in its own ring. When an
alert starts firing, a circuit breaker opens, or a watchdog times out,
it freezes the ring into a self-contained **incident bundle**:

* a Perfetto-loadable trace slice built from the ring's ``SpanEnd``
  events (plus an instant marking the trigger),
* a metric snapshot (last sampled value per series),
* the fault-plane activity preceding the trigger,
* recovery-plane state (open breakers, recent watchdogs),
* the set of alerts active at capture time,
* and a fault→breach correlation: which injected fault categories
  preceded this alert/trip inside the ring window.

Bundles are plain JSON-serializable dicts (``schema`` key versions the
layout); :meth:`FlightRecorder.write` dumps one to disk so a chaos run
turns into a browsable incident. A cooldown keeps a cascading failure
from producing a bundle per event, and the incident list itself is
bounded.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List

from .export import trace_from_spans
from .telemetry import (
    AlertFired,
    FaultInjected,
    MetricSample,
    RecoveryEvent,
    SpanEnd,
    TelemetryBus,
    TelemetryEvent,
)

__all__ = ["FlightRecorder"]

_PID = 1

#: RecoveryEvent kinds that trigger a capture.
_RECOVERY_TRIGGERS = ("breaker-open", "watchdog-timeout")


class FlightRecorder:
    """Always-on ring buffer that freezes into incident bundles."""

    def __init__(
        self,
        bus: TelemetryBus,
        capacity: int = 2048,
        cooldown_ns: float = 1e6,
        max_incidents: int = 8,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_incidents <= 0:
            raise ValueError("max_incidents must be positive")
        self.bus = bus
        self.cooldown_ns = cooldown_ns
        self.max_incidents = max_incidents
        self.ring: deque = deque(maxlen=capacity)
        self.incidents: List[dict] = []
        self.triggered = 0
        self.suppressed = 0
        self.incidents_dropped = 0
        self.open_breakers = 0
        #: Last capture time *per trigger kind* (alert-firing,
        #: breaker-open, watchdog-timeout). A shared window would let a
        #: storm of one kind suppress the first capture of another —
        #: exactly the bundle an incident review needs.
        self._last_trigger_ns: Dict[str, float] = {}
        #: alert/trip name -> fault category -> count, aggregated over
        #: every capture (the fault→breach correlation table).
        self.correlation: Dict[str, Dict[str, int]] = {}
        bus.subscribe(self._on_event)

    # -- event intake ------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        self.ring.append(event)
        if isinstance(event, RecoveryEvent):
            if event.kind_name == "breaker-open":
                self.open_breakers += 1
            elif event.kind_name == "breaker-close":
                self.open_breakers = max(self.open_breakers - 1, 0)
            if event.kind_name in _RECOVERY_TRIGGERS:
                self._trigger(event.kind_name, event)
        elif isinstance(event, AlertFired) and event.state == "firing":
            self._trigger("alert-firing", event)

    def _trigger(self, reason: str, event: TelemetryEvent) -> None:
        self.triggered += 1
        breach = self._breach_name(reason, event)
        self._correlate(breach, event.t_ns)
        last = self._last_trigger_ns.get(reason)
        if last is not None and event.t_ns - last < self.cooldown_ns:
            self.suppressed += 1
            return
        self._last_trigger_ns[reason] = event.t_ns
        self.incidents.append(self.capture(reason, event))
        if len(self.incidents) > self.max_incidents:
            self.incidents.pop(0)
            self.incidents_dropped += 1

    @staticmethod
    def _breach_name(reason: str, event: TelemetryEvent) -> str:
        if isinstance(event, AlertFired):
            return event.alert
        return reason

    def _correlate(self, breach: str, now_ns: float) -> None:
        """Count the fault categories injected before this breach."""
        per_breach = self.correlation.setdefault(breach, {})
        for event in self.ring:
            if isinstance(event, FaultInjected) and event.t_ns <= now_ns:
                per_breach[event.category] = per_breach.get(event.category, 0) + 1

    # -- capture -----------------------------------------------------------
    def capture(self, reason: str, trigger: TelemetryEvent) -> dict:
        """Freeze the ring into one self-contained incident bundle."""
        now = trigger.t_ns
        span_events = [e for e in self.ring if isinstance(e, SpanEnd)]
        metrics: Dict[str, Dict[str, float]] = {}
        faults: Dict[str, int] = {}
        recoveries: Dict[str, int] = {}
        active_alerts: Dict[str, str] = {}
        for event in self.ring:
            if isinstance(event, MetricSample):
                metrics[event.name] = {"last": event.value, "t_ns": event.t_ns}
            elif isinstance(event, FaultInjected):
                faults[event.category] = faults.get(event.category, 0) + 1
            elif isinstance(event, RecoveryEvent):
                recoveries[event.kind_name] = recoveries.get(event.kind_name, 0) + 1
            elif isinstance(event, AlertFired):
                if event.state in ("pending", "firing"):
                    active_alerts[event.alert] = event.state
                else:
                    active_alerts.pop(event.alert, None)
        marker = {
            "ph": "i", "s": "g", "pid": _PID, "tid": 0,
            "name": f"incident: {reason}", "cat": "incident",
            "ts": now / 1000.0,
        }
        trace = trace_from_spans(span_events, process_name="repro-incident")
        trace["traceEvents"].append(marker)
        return {
            "schema": "accelflow-incident/1",
            "reason": reason,
            "t_ns": now,
            "trigger": trigger.to_dict(),
            "trace": trace,
            "metrics": metrics,
            "faults_in_window": faults,
            "recovery_in_window": recoveries,
            "open_breakers": self.open_breakers,
            "active_alerts": active_alerts,
            "events_in_window": len(self.ring),
            "correlation": {
                breach: dict(categories)
                for breach, categories in self.correlation.items()
            },
        }

    # -- output ------------------------------------------------------------
    def write(self, path: str, index: int = -1) -> str:
        """Dump one incident bundle (default: the most recent) as JSON."""
        if not self.incidents:
            raise ValueError("no incidents captured")
        with open(path, "w") as handle:
            json.dump(self.incidents[index], handle, indent=1, default=str)
        return path

    def correlation_table(self) -> str:
        """Fault→breach correlation as fixed-width text."""
        if not self.correlation:
            return "(no breaches recorded)"
        lines = ["breach                          fault category        preceded"]
        lines.append("-" * len(lines[0]))
        for breach in sorted(self.correlation):
            categories = self.correlation[breach]
            if not categories:
                lines.append(f"{breach:<32}(no faults in window)")
                continue
            ranked = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))
            for category, count in ranked:
                lines.append(f"{breach:<32}{category:<22}{count:>8}")
        return "\n".join(lines)

    def stats(self) -> Dict[str, float]:
        return {
            "triggered": float(self.triggered),
            "captured": float(len(self.incidents)),
            "suppressed": float(self.suppressed),
            "incidents_dropped": float(self.incidents_dropped),
            "open_breakers": float(self.open_breakers),
            "events_in_ring": float(len(self.ring)),
        }
