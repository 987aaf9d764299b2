"""The single switchboard for all observability features.

One :class:`ObsConfig` travels from the caller through
:class:`~repro.server.driver.RunConfig` into
:class:`~repro.server.machine.SimulatedServer`, which builds the
runtime objects (tracer, metrics registry, telemetry bus, SLO monitor,
flight recorder) and registers them back here as an
:class:`ObsSession`. After a run::

    obs = ObsConfig(trace=True, metrics=True)
    run_experiment(services, RunConfig("accelflow", obs=obs))
    write_chrome_trace(obs.tracer, "trace.json")
    print(obs.registry.render())

Dedicated-mode experiments create one server per service; each server
appends its own session, and the ``tracer``/``registry``/``bus``
shortcuts return the most recent one.

Every fact (fleet markers, admission and health decisions, fault
injections, recovery events, alert transitions) is published once on
the session's telemetry bus, which exists whenever tracing or the
streaming plane (``telemetry``/``slo``/``flight_recorder``) is on; the
tracer draws those facts from the bus. Spans and metric samples stream
onto the bus only when the streaming plane is on. With everything off
nothing is constructed and nothing is published, so disabled runs stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - each plane loads when switched on
    from .metrics import MetricsRegistry
    from .recorder import FlightRecorder
    from .slo import SLOMonitor, SLOMonitorConfig
    from .span import SpanTracer
    from .telemetry import TelemetryBus

__all__ = ["ObsConfig", "ObsSession"]


@dataclass
class ObsSession:
    """The observability objects of one simulated server."""

    env: object
    tracer: Optional[SpanTracer] = None
    registry: Optional[MetricsRegistry] = None
    bus: Optional[TelemetryBus] = None
    slo_monitor: Optional[SLOMonitor] = None
    recorder: Optional[FlightRecorder] = None


@dataclass
class ObsConfig:
    """What to observe. All features default to off."""

    #: Record request-flow spans.
    trace: bool = False
    #: Fraction of requests traced, per service (stride sampling).
    sample_rate: float = 1.0
    #: Run the periodic time-series sampler.
    metrics: bool = False
    #: Sampling period of the metrics process (sim ns).
    metrics_interval_ns: float = 1e6
    #: Enable :class:`repro.sim.Environment` kernel profiling.
    profile_kernel: bool = False
    #: Run the streaming plane: spans and metric samples stream onto
    #: the bus too.
    telemetry: bool = False
    #: Attach a burn-rate SLO monitor to the bus (implies telemetry).
    slo: Optional[SLOMonitorConfig] = None
    #: Attach an incident flight recorder to the bus (implies telemetry).
    flight_recorder: bool = False
    #: Sessions registered by the servers that used this config.
    sessions: List[ObsSession] = field(default_factory=list, repr=False)

    @property
    def telemetry_enabled(self) -> bool:
        return self.telemetry or self.slo is not None or self.flight_recorder

    @property
    def enabled(self) -> bool:
        return (
            self.trace
            or self.metrics
            or self.profile_kernel
            or self.telemetry_enabled
        )

    def make_session(self, env) -> ObsSession:
        """Build the runtime objects for one server/cluster and register
        them as a new session.

        The tracer subscribes first, so an instant it draws from a fact
        (and streams as ``SpanEnd``) reaches the flight recorder before
        the fact itself triggers a capture. The flight recorder
        subscribes before the SLO monitor so an ``AlertFired`` published
        mid-dispatch still lands in the recorder's ring before the
        recorder's own trigger handling runs.
        """
        if self.profile_kernel:
            env.enable_profiling()
        tracer = registry = bus = slo_monitor = recorder = None
        if self.trace:
            from .span import SpanTracer

            tracer = SpanTracer(env, sample_rate=self.sample_rate)
        if self.metrics:
            from .metrics import MetricsRegistry

            registry = MetricsRegistry(env, interval_ns=self.metrics_interval_ns)
        if self.trace or self.telemetry_enabled:
            from .telemetry import TelemetryBus

            bus = TelemetryBus(env)
        if tracer is not None:
            tracer.attach(bus)
        if self.telemetry_enabled:
            if tracer is not None:
                tracer.bus = bus
            if registry is not None:
                registry.bus = bus
            if self.flight_recorder:
                from .recorder import FlightRecorder

                recorder = FlightRecorder(bus)
            if self.slo is not None:
                from .slo import SLOMonitor

                slo_monitor = SLOMonitor(bus, self.slo)
        session = ObsSession(
            env=env,
            tracer=tracer,
            registry=registry,
            bus=bus,
            slo_monitor=slo_monitor,
            recorder=recorder,
        )
        self.sessions.append(session)
        return session

    def _latest(self, name: str):
        """``name`` of the most recent session that has one, else None."""
        for session in reversed(self.sessions):
            value = getattr(session, name)
            if value is not None:
                return value
        return None

    @property
    def tracer(self) -> Optional[SpanTracer]:
        """Tracer of the most recent session (None before any run)."""
        return self._latest("tracer")

    @property
    def registry(self) -> Optional[MetricsRegistry]:
        """Metrics registry of the most recent session."""
        return self._latest("registry")

    @property
    def bus(self) -> Optional[TelemetryBus]:
        """Telemetry bus of the most recent session."""
        return self._latest("bus")

    @property
    def slo_monitor(self) -> Optional[SLOMonitor]:
        """SLO monitor of the most recent session."""
        return self._latest("slo_monitor")

    @property
    def recorder(self) -> Optional[FlightRecorder]:
        """Flight recorder of the most recent session."""
        return self._latest("recorder")
