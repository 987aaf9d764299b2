"""Observability: tracing, metrics, profiling, and streaming telemetry.

Post-hoc layers, all opt-in through one :class:`ObsConfig` object:

* :class:`SpanTracer` records each sampled request's lifecycle (queue
  waits, PE execution, dispatcher work, DTE transforms, ATM reads, DMA
  hand-offs, notifications) as spans with nanosecond sim-timestamps,
  and draws the facts published on the session's bus (fleet markers,
  faults, recoveries, alerts) as instants on per-type tracks.
  Export with :func:`chrome_trace` / :func:`write_chrome_trace`
  (``chrome://tracing`` / Perfetto compatible) or render in a terminal
  with :func:`render_timeline`.
* :class:`MetricsRegistry` runs a periodic sampler process that records
  queue depths, utilizations, in-flight requests and achieved RPS into
  ring buffers; render with :meth:`MetricsRegistry.render` sparklines.
* Kernel profiling lives in :class:`repro.sim.Environment` (enabled via
  ``ObsConfig.profile_kernel``); :func:`format_profile` renders it.

The *streaming* plane (``ObsConfig(telemetry=True, ...)``) layers live
consumers over the same producers:

* :class:`TelemetryBus` — bounded pub/sub ring and the one
  instrumentation spine; spans, metric samples, fault injections,
  recovery events and request terminals are published as they happen
  in sim time, each fact once.
* :class:`SLOMonitor` — multi-window burn-rate alerting over
  per-service availability/latency targets (:class:`SLOTarget`,
  :class:`SLOMonitorConfig`), publishing each alert transition.
* :class:`FlightRecorder` — ring-buffered incident bundles captured on
  alert-fire / breaker-open / watchdog-timeout, plus the fault→breach
  correlation table.
* :class:`Dashboard` — live/snapshot ASCII fleet view
  (``python -m repro.obs.dashboard``).

Disabled observability costs a single ``is not None`` attribute check
at each instrumentation point.
"""

from .._lazy import lazy_exports

__all__ = [
    "AdmissionEvent",
    "Alert",
    "AlertFired",
    "AlertState",
    "Dashboard",
    "FaultInjected",
    "FlightRecorder",
    "Marker",
    "MetricSample",
    "MetricsRegistry",
    "ObsConfig",
    "ObsSession",
    "RecoveryEvent",
    "RequestEnd",
    "SLOMonitor",
    "SLOMonitorConfig",
    "SLOTarget",
    "Span",
    "SpanEnd",
    "SpanTracer",
    "TelemetryBus",
    "TelemetryEvent",
    "TimeSeries",
    "chrome_trace",
    "format_profile",
    "render_timeline",
    "trace_from_spans",
    "write_chrome_trace",
]

# Lazy, so `python -m repro.obs.dashboard` does not import the dashboard
# twice (once through the package, once as __main__; runpy warns).
__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("ObsConfig", "ObsSession"),
    ".dashboard": ("Dashboard",),
    ".export": ("chrome_trace", "trace_from_spans", "write_chrome_trace"),
    ".metrics": ("MetricsRegistry", "TimeSeries"),
    ".profiling": ("format_profile",),
    ".recorder": ("FlightRecorder",),
    ".slo": ("Alert", "AlertState", "SLOMonitor", "SLOMonitorConfig", "SLOTarget"),
    ".span": ("Span", "SpanTracer"),
    ".telemetry": (
        "AdmissionEvent",
        "AlertFired",
        "FaultInjected",
        "Marker",
        "MetricSample",
        "RecoveryEvent",
        "RequestEnd",
        "SpanEnd",
        "TelemetryBus",
        "TelemetryEvent",
    ),
    ".timeline": ("render_timeline",),
})
