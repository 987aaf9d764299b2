"""Span tracer: nested per-request spans with sim timestamps.

A :class:`Span` covers one piece of work attributed to a *track* (one
"thread" per accelerator/core in the exported trace) and optionally to
one sampled request. Sampling is deterministic stride sampling per
service — for a fixed RNG seed two runs produce identical traces —
and request ids are renumbered to trace-local indices so traces do not
depend on how many requests earlier tests/runs created.

Per-request spans come from the hot-path producers, which sample
before they build span arguments. Facts — fleet markers, admission and
health decisions, fault injections, recovery events and alert
transitions — are published once on the telemetry bus, and a tracer
attached to that bus draws each as one instant on its type's track; a
firing alert is drawn as a span that closes when the alert resolves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .telemetry import (
    AdmissionEvent,
    AlertFired,
    FaultInjected,
    HealthEvent,
    Marker,
    RecoveryEvent,
    SpanEnd,
    TelemetryEvent,
)

__all__ = ["Span", "SpanTracer"]

#: Fact event type -> the track an attached tracer draws it on.
_FACT_TRACKS = {
    Marker: "cluster",
    AdmissionEvent: "cluster",
    HealthEvent: "cluster",
    FaultInjected: "faults",
    RecoveryEvent: "faults",
    AlertFired: "alerts",
}


class Span:
    """One completed or in-flight span on a track."""

    __slots__ = ("name", "track", "cat", "start_ns", "end_ns", "req", "args")

    def __init__(
        self,
        name: str,
        track: str,
        start_ns: float,
        end_ns: Optional[float] = None,
        req: Optional[int] = None,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.track = track
        self.cat = cat
        self.start_ns = start_ns
        self.end_ns = end_ns
        #: Trace-local request index (None for hardware-level spans).
        self.req = req
        self.args = args

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end_ns - self.start_ns

    @property
    def is_instant(self) -> bool:
        return self.end_ns is not None and self.end_ns == self.start_ns

    def __repr__(self) -> str:
        end = f"{self.end_ns:.0f}" if self.end_ns is not None else "..."
        return f"Span({self.name!r}, {self.track}, [{self.start_ns:.0f}, {end}])"


class SpanTracer:
    """Collects spans for a deterministic sample of requests.

    ``sample_rate`` is the fraction of requests traced per service
    (stride sampling: rate 0.25 keeps every 4th request of a service).
    ``services`` optionally restricts tracing to the named services.
    ``max_spans`` bounds memory; further spans are counted as dropped.
    """

    def __init__(
        self,
        env,
        sample_rate: float = 1.0,
        services: Optional[Sequence[str]] = None,
        max_spans: int = 200_000,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.env = env
        self.sample_rate = sample_rate
        self.services = frozenset(services) if services is not None else None
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        #: Spans auto-closed because they were still open at export.
        self.unclosed = 0
        #: Optional :class:`~repro.obs.telemetry.TelemetryBus`; closed
        #: spans are additionally published as ``SpanEnd`` events.
        self.bus = None
        #: Alert name -> its open firing span (see :meth:`attach`).
        self._alert_spans: Dict[str, Optional[Span]] = {}
        #: Per-service stride accumulator for deterministic sampling.
        self._stride: Dict[str, float] = {}
        #: Global request id -> trace-local index, for every sampled
        #: request ever seen (kept so late spans still resolve).
        self._local_ids: Dict[int, int] = {}
        #: Global ids of requests currently in flight and sampled.
        self._sampled: set = set()

    # -- sampling ----------------------------------------------------------
    def sample_request(self, request) -> bool:
        """Decide (deterministically) whether to trace ``request``."""
        name = request.spec.name
        if self.services is not None and name not in self.services:
            return False
        if self.sample_rate <= 0.0:
            return False
        acc = self._stride.get(name, 0.0) + self.sample_rate
        take = acc >= 1.0 - 1e-12
        if take:
            acc -= 1.0
            self._local_ids[request.rid] = len(self._local_ids)
            self._sampled.add(request.rid)
        self._stride[name] = acc
        return take

    def is_sampled(self, rid: int) -> bool:
        """True while the request with global id ``rid`` is being traced."""
        return rid in self._sampled

    def finish_request(self, rid: int) -> None:
        """Stop tracking a completed request (its spans are kept)."""
        self._sampled.discard(rid)

    def local_id(self, rid: Optional[int]) -> Optional[int]:
        """Trace-local index of a sampled request's global id."""
        if rid is None:
            return None
        return self._local_ids.get(rid)

    # -- recording ---------------------------------------------------------
    def _admit(self, span: Span) -> Optional[Span]:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        self.spans.append(span)
        return span

    def begin(
        self,
        name: str,
        track: str,
        rid: Optional[int] = None,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Open a span at the current sim time; close it with :meth:`end`."""
        return self._admit(
            Span(name, track, self.env.now, None, self.local_id(rid), cat, args)
        )

    def _publish(self, span: Optional[Span]) -> Optional[Span]:
        """Stream a closed span onto :attr:`bus` when one is set."""
        if span is not None and self.bus is not None:
            self.bus.publish(
                SpanEnd(
                    t_ns=span.end_ns,
                    name=span.name,
                    track=span.track,
                    start_ns=span.start_ns,
                    end_ns=span.end_ns,
                    req=span.req,
                    cat=span.cat,
                    args=span.args,
                )
            )
        return span

    def end(self, span: Optional[Span], **extra_args: Any) -> None:
        """Close a span opened with :meth:`begin` at the current sim time."""
        if span is None:  # dropped at begin() time
            return
        span.end_ns = self.env.now
        if extra_args:
            span.args = {**(span.args or {}), **extra_args}
        self._publish(span)

    def complete(
        self,
        name: str,
        track: str,
        start_ns: float,
        end_ns: float,
        rid: Optional[int] = None,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Record a span whose start and end are already known."""
        return self._publish(
            self._admit(
                Span(name, track, start_ns, end_ns, self.local_id(rid), cat, args)
            )
        )

    def instant(
        self,
        name: str,
        track: str,
        rid: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Record a zero-duration marker at the current sim time."""
        now = self.env.now
        return self._publish(
            self._admit(
                Span(name, track, now, now, self.local_id(rid), "instant", args)
            )
        )

    # -- facts from the bus --------------------------------------------
    def attach(self, bus) -> None:
        """Draw every fact published on ``bus`` on its type's track.

        Attaching does not stream spans onto the bus; that is what
        :attr:`bus` is for.
        """
        bus.subscribe(self._draw, kinds=tuple(_FACT_TRACKS))

    def _draw(self, event: TelemetryEvent) -> None:
        """One instant per fact, at the fact's own timestamp."""
        kind = type(event)
        if kind is AlertFired:
            self._draw_alert(event)
            return
        if kind is Marker:
            name, args = event.name, event.args
        elif kind is AdmissionEvent:
            name, args = event.decision, {"service": event.service}
        elif kind is HealthEvent:
            name = f"machine-{event.state}"
            args = {"machine": event.machine, "score": event.score,
                    **(event.args or {})}
        elif kind is FaultInjected:
            name, args = event.category, event.args
        else:
            name, args = event.kind_name, event.args
        self._mark(name, _FACT_TRACKS[kind], event.t_ns, args)

    def _draw_alert(self, event: AlertFired) -> None:
        """Pending and cancelled alerts are instants; a firing alert is a
        span that its resolution closes."""
        t_ns, alert, state = event.t_ns, event.alert, event.state
        if state == "resolved":
            span = self._alert_spans.pop(alert, None)
            if span is not None:
                span.end_ns = t_ns
                span.args = {**span.args, "resolved": True}
                self._publish(span)
            return
        args = {"service": event.service}
        if state != "inactive":
            args["burn_fast"] = round(event.burn_fast, 2)
        if state == "firing":
            args["burn_slow"] = round(event.burn_slow, 2)
            self._alert_spans[alert] = self._admit(
                Span(f"alert {alert}", "alerts", t_ns, None, None, "alert",
                     {**args, **(event.args or {})})
            )
        else:
            verb = "cancelled" if state == "inactive" else "pending"
            self._mark(f"alert-{verb} {alert}", "alerts", t_ns,
                       {**args, **(event.args or {})})

    def _mark(
        self, name: str, track: str, t_ns: float, args: Optional[Dict[str, Any]]
    ) -> None:
        self._publish(
            self._admit(Span(name, track, t_ns, t_ns, None, "instant", args))
        )

    def close_open_spans(self) -> int:
        """Close every span still open, at the current sim time.

        Spans left open when the environment finishes (a request in
        flight at the horizon, an alert still firing) used to vanish
        silently from exports. They now get ``end_ns = now`` and an
        ``unclosed: true`` attribute, are counted on :attr:`unclosed`,
        and are published to the bus like any other closed span.
        Returns how many spans were closed by this call.
        """
        now = self.env.now
        closed = 0
        for span in self.spans:
            if span.end_ns is None:
                span.end_ns = now
                span.args = {**(span.args or {}), "unclosed": True}
                self.unclosed += 1
                closed += 1
                self._publish(span)
        return closed

    # -- access ------------------------------------------------------------
    def tracks(self) -> List[str]:
        """All track names, in first-seen (deterministic) order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        return list(seen)

    def spans_for(
        self, track: Optional[str] = None, req: Optional[int] = None
    ) -> List[Span]:
        """Spans filtered by track and/or trace-local request index."""
        out = self.spans
        if track is not None:
            out = [s for s in out if s.track == track]
        if req is not None:
            out = [s for s in out if s.req == req]
        return list(out)

    def __len__(self) -> int:
        return len(self.spans)
