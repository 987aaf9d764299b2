"""Unit tests for the incident flight recorder."""

import json

import pytest

from repro.obs import FlightRecorder, trace_from_spans
from repro.obs.telemetry import (
    AlertFired,
    FaultInjected,
    MetricSample,
    RecoveryEvent,
    RequestEnd,
    SpanEnd,
    TelemetryBus,
)


def _recorder(**kwargs):
    bus = TelemetryBus()
    kwargs.setdefault("cooldown_ns", 0.0)
    return bus, FlightRecorder(bus, **kwargs)


def _firing(t_ns, alert="slo-burn:svc"):
    return AlertFired(
        t_ns=t_ns, alert=alert, service="svc", state="firing",
        burn_fast=5.0, burn_slow=3.0,
    )


# ----------------------------------------------------------------------
# Trigger paths
# ----------------------------------------------------------------------
def test_alert_firing_triggers_capture():
    bus, recorder = _recorder()
    bus.publish(_firing(10.0))
    assert recorder.triggered == 1
    assert len(recorder.incidents) == 1
    bundle = recorder.incidents[0]
    assert bundle["reason"] == "alert-firing"
    assert bundle["trigger"]["alert"] == "slo-burn:svc"


def test_pending_and_resolved_do_not_trigger():
    bus, recorder = _recorder()
    for state in ("pending", "resolved"):
        bus.publish(
            AlertFired(t_ns=1.0, alert="a", service="svc", state=state)
        )
    assert recorder.triggered == 0
    assert recorder.incidents == []


def test_breaker_open_triggers_and_tracks_count():
    bus, recorder = _recorder()
    bus.publish(RecoveryEvent(t_ns=5.0, kind_name="breaker-open",
                              args={"accel": "pe"}))
    assert recorder.triggered == 1
    assert recorder.incidents[0]["reason"] == "breaker-open"
    assert recorder.open_breakers == 1
    bus.publish(RecoveryEvent(t_ns=9.0, kind_name="breaker-close",
                              args={"accel": "pe"}))
    assert recorder.open_breakers == 0
    # breaker-close is not a trigger.
    assert recorder.triggered == 1


def test_watchdog_timeout_triggers():
    bus, recorder = _recorder()
    bus.publish(RecoveryEvent(t_ns=3.0, kind_name="watchdog-timeout"))
    assert recorder.incidents[0]["reason"] == "watchdog-timeout"


def test_degraded_to_cpu_is_recorded_but_not_a_trigger():
    bus, recorder = _recorder()
    bus.publish(RecoveryEvent(t_ns=3.0, kind_name="degraded-to-cpu"))
    assert recorder.triggered == 0
    bus.publish(_firing(4.0))
    assert recorder.incidents[0]["recovery_in_window"] == {
        "degraded-to-cpu": 1
    }


# ----------------------------------------------------------------------
# Cooldown / bounds
# ----------------------------------------------------------------------
def test_cooldown_suppresses_capture_but_still_counts_trigger():
    bus, recorder = _recorder(cooldown_ns=100.0)
    bus.publish(_firing(0.0))
    bus.publish(_firing(50.0, alert="slo-burn:other"))  # inside cooldown
    bus.publish(_firing(200.0))  # past cooldown
    assert recorder.triggered == 3
    assert recorder.suppressed == 1
    assert len(recorder.incidents) == 2
    # The suppressed breach still lands in the correlation table.
    assert "slo-burn:other" in recorder.correlation


def test_cooldown_is_per_trigger_kind():
    # Regression: the cooldown used to be one shared window, so an
    # alert storm would suppress the first capture of an unrelated
    # breaker trip (and vice versa). Distinct trigger kinds must each
    # get their own cooldown window.
    bus, recorder = _recorder(cooldown_ns=100.0)
    bus.publish(_firing(0.0))
    bus.publish(RecoveryEvent(t_ns=10.0, kind_name="breaker-open"))
    bus.publish(RecoveryEvent(t_ns=20.0, kind_name="watchdog-timeout"))
    # All three kinds captured despite landing inside one another's
    # windows.
    assert [b["reason"] for b in recorder.incidents] == [
        "alert-firing", "breaker-open", "watchdog-timeout",
    ]
    assert recorder.suppressed == 0
    # Repeats of the same kind inside its own window still suppress...
    bus.publish(RecoveryEvent(t_ns=30.0, kind_name="breaker-open"))
    bus.publish(_firing(40.0))
    assert recorder.suppressed == 2
    assert len(recorder.incidents) == 3
    # ...and fire again once that kind's window has passed.
    bus.publish(RecoveryEvent(t_ns=150.0, kind_name="breaker-open"))
    assert len(recorder.incidents) == 4
    assert recorder.incidents[-1]["reason"] == "breaker-open"


def test_incident_list_is_bounded():
    bus, recorder = _recorder(max_incidents=2)
    for t in range(4):
        bus.publish(_firing(float(t)))
    assert len(recorder.incidents) == 2
    assert recorder.incidents_dropped == 2
    assert recorder.incidents[-1]["t_ns"] == 3.0


def test_ring_is_bounded():
    bus, recorder = _recorder(capacity=4)
    for t in range(10):
        bus.publish(RequestEnd(t_ns=float(t), service="svc",
                               latency_ns=1.0, ok=True))
    assert len(recorder.ring) == 4


def test_invalid_sizes_rejected():
    bus = TelemetryBus()
    with pytest.raises(ValueError):
        FlightRecorder(bus, capacity=0)
    with pytest.raises(ValueError):
        FlightRecorder(bus, max_incidents=0)


# ----------------------------------------------------------------------
# Bundle contents
# ----------------------------------------------------------------------
def test_bundle_is_self_contained_and_json_serializable(tmp_path):
    bus, recorder = _recorder()
    bus.publish(SpanEnd(t_ns=2.0, name="pe.exec", track="pe0",
                        start_ns=1.0, end_ns=2.0, req=0))
    bus.publish(SpanEnd(t_ns=2.0, name="mark", track="pe0",
                        start_ns=2.0, end_ns=2.0))
    bus.publish(MetricSample(t_ns=3.0, name="queue_depth", value=7.0))
    bus.publish(MetricSample(t_ns=4.0, name="queue_depth", value=9.0))
    bus.publish(FaultInjected(t_ns=5.0, category="pe-transient"))
    bus.publish(_firing(6.0))
    bundle = recorder.incidents[0]
    assert bundle["schema"] == "accelflow-incident/1"
    assert bundle["metrics"]["queue_depth"]["last"] == 9.0  # latest wins
    assert bundle["faults_in_window"] == {"pe-transient": 1}
    assert bundle["active_alerts"] == {"slo-burn:svc": "firing"}
    assert bundle["events_in_window"] == 6
    # Round-trips through JSON and loads as a valid Chrome trace.
    path = recorder.write(str(tmp_path / "incident.json"))
    loaded = json.load(open(path))
    events = loaded["trace"]["traceEvents"]
    assert all(e["ph"] in ("M", "X", "i") for e in events)
    complete = [e for e in events if e["ph"] == "X"]
    assert complete[0]["name"] == "pe.exec"
    assert complete[0]["dur"] == pytest.approx(0.001)  # 1ns in us
    assert any(e["name"] == "incident: alert-firing" for e in events)


def test_write_without_incidents_raises(tmp_path):
    _, recorder = _recorder()
    with pytest.raises(ValueError):
        recorder.write(str(tmp_path / "nope.json"))


def test_cancelled_pending_alert_leaves_active_set():
    """A pending alert cancelled before firing is not active later."""
    from repro.obs import SLOMonitor, SLOMonitorConfig, SLOTarget

    bus, recorder = _recorder()
    monitor = SLOMonitor(bus, SLOMonitorConfig(
        targets=(SLOTarget("*", availability=0.9),),
        fast_window_ns=10.0, slow_window_ns=100.0, burn_threshold=2.0,
        min_events=2, pending_for_ns=5.0,
    ))

    def end(t_ns, service, ok):
        bus.publish(RequestEnd(t_ns=float(t_ns), service=service,
                               latency_ns=1.0, ok=ok))

    end(0, "a", False)
    end(1, "a", False)  # a: pending
    for i in range(20):
        end(2 + i / 10, "a", True)  # a: burn clears before the hold
    assert monitor.alerts["a"].state == "inactive"
    for t in (30, 31, 37):
        end(t, "b", False)  # b: pending at 31, firing at 37
    assert monitor.alerts["b"].state == "firing"
    assert recorder.incidents[-1]["active_alerts"] == {"slo-burn:b": "firing"}


def test_resolved_alert_leaves_active_set():
    bus, recorder = _recorder(cooldown_ns=1e9)
    bus.publish(_firing(1.0))
    bus.publish(AlertFired(t_ns=2.0, alert="slo-burn:svc",
                           service="svc", state="resolved"))
    bundle = recorder.capture("manual", _firing(3.0))
    assert bundle["active_alerts"] == {}


# ----------------------------------------------------------------------
# Correlation
# ----------------------------------------------------------------------
def test_correlation_counts_faults_preceding_each_breach():
    bus, recorder = _recorder()
    bus.publish(FaultInjected(t_ns=1.0, category="manager-outage"))
    bus.publish(FaultInjected(t_ns=2.0, category="pe-transient"))
    bus.publish(_firing(3.0))
    bus.publish(FaultInjected(t_ns=4.0, category="pe-transient"))
    bus.publish(RecoveryEvent(t_ns=5.0, kind_name="watchdog-timeout"))
    assert recorder.correlation["slo-burn:svc"] == {
        "manager-outage": 1, "pe-transient": 1,
    }
    assert recorder.correlation["watchdog-timeout"] == {
        "manager-outage": 1, "pe-transient": 2,
    }
    table = recorder.correlation_table()
    assert "slo-burn:svc" in table
    assert "pe-transient" in table


def test_correlation_table_handles_empty_states():
    _, recorder = _recorder()
    assert "no breaches" in recorder.correlation_table()
    recorder.correlation["breach-x"] = {}
    assert "no faults in window" in recorder.correlation_table()


def test_stats_shape():
    bus, recorder = _recorder()
    bus.publish(_firing(1.0))
    stats = recorder.stats()
    assert stats["captured"] == 1.0
    assert stats["triggered"] == 1.0


# ----------------------------------------------------------------------
# Shared trace builder
# ----------------------------------------------------------------------
def test_trace_from_span_events_tracks_and_instants():
    spans = [
        SpanEnd(t_ns=5.0, name="a", track="pe0", start_ns=1.0, end_ns=5.0,
                args={"k": 1}),
        SpanEnd(t_ns=6.0, name="i", track="dma", start_ns=6.0, end_ns=6.0),
    ]
    trace = trace_from_spans(spans)
    events = trace["traceEvents"]
    thread_names = [e["args"]["name"] for e in events
                    if e.get("name") == "thread_name"]
    assert thread_names == ["pe0", "dma"]
    instant = [e for e in events if e["ph"] == "i"][0]
    assert instant["name"] == "i"
    complete = [e for e in events if e["ph"] == "X"][0]
    assert complete["args"] == {"k": 1}
    assert json.loads(json.dumps(trace)) == trace
