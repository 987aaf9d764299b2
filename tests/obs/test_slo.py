"""Unit tests for burn-rate math and the SLO alert lifecycle."""

import pytest

from repro.obs import SLOMonitor, SLOMonitorConfig, SLOTarget
from repro.obs.slo import AlertState, _ServiceWindow
from repro.obs.telemetry import AlertFired, RequestEnd, TelemetryBus


def _config(**overrides):
    defaults = dict(
        targets=(SLOTarget("svc", availability=0.9),),
        fast_window_ns=10.0,
        slow_window_ns=100.0,
        burn_threshold=2.0,
        min_events=2,
    )
    defaults.update(overrides)
    return SLOMonitorConfig(**defaults)


def _monitor(**overrides):
    bus = TelemetryBus()
    monitor = SLOMonitor(bus, _config(**overrides))
    transitions = []
    bus.subscribe(
        lambda e: transitions.append((e.state, e.t_ns)), kinds=(AlertFired,)
    )
    return bus, monitor, transitions


def _end(bus, t_ns, ok, service="svc", latency_ns=1.0):
    bus.publish(
        RequestEnd(t_ns=t_ns, service=service, latency_ns=latency_ns, ok=ok)
    )


# ----------------------------------------------------------------------
# Burn-rate math / window geometry
# ----------------------------------------------------------------------
def test_burn_rate_is_bad_fraction_over_budget():
    window = _ServiceWindow(SLOTarget("svc", availability=0.9))  # budget 0.1
    config = _config()
    for t in range(4):  # 2 bad of 4 -> fraction 0.5 -> burn 5.0
        window.add(float(t), bad=(t % 2 == 0))
    fast, slow = window.burn_rates(4.0, config)
    assert fast == pytest.approx(5.0)
    assert slow == pytest.approx(5.0)


def test_window_edge_alignment_is_strictly_greater():
    """Membership is ``t > now - window``: the edge sample has aged out."""
    config = _config(min_events=1)
    window = _ServiceWindow(SLOTarget("svc", availability=0.9))
    window.add(0.0, bad=True)
    window.add(50.0, bad=False)
    # now=100: t=0 sits exactly one slow window back -> pruned.
    fast, slow = window.burn_rates(100.0, config)
    assert window.bad_total == 0
    assert slow == 0.0
    # Fast window (10ns) at now=55: t=50 is in (45, 55], t=0 long gone.
    window2 = _ServiceWindow(SLOTarget("svc", availability=0.9))
    window2.add(45.0, bad=True)
    window2.add(50.0, bad=True)
    fast, _ = window2.burn_rates(55.0, config)
    # t=45 is exactly now - fast_window -> excluded from the fast count.
    assert fast == pytest.approx((1 / 1) / 0.1)


def test_under_sampled_windows_do_not_burn():
    bus, monitor, transitions = _monitor(min_events=5)
    for t in range(4):
        _end(bus, float(t), ok=False)  # 100% bad but only 4 events
    assert transitions == []
    _end(bus, 4.0, ok=False)
    assert [s for s, _ in transitions] == ["pending", "firing"]


def test_latency_slo_counts_slow_completions_as_bad():
    bus, monitor, _ = _monitor(
        targets=(SLOTarget("svc", availability=0.9, latency_ns=100.0),)
    )
    target = monitor.target_for("svc")
    fast_req = RequestEnd(t_ns=0.0, service="svc", latency_ns=50.0, ok=True)
    slow_req = RequestEnd(t_ns=0.0, service="svc", latency_ns=150.0, ok=True)
    failed = RequestEnd(t_ns=0.0, service="svc", latency_ns=50.0, ok=False)
    assert not monitor.is_bad(fast_req, target)
    assert monitor.is_bad(slow_req, target)
    assert monitor.is_bad(failed, target)


def test_wildcard_target_monitors_unknown_services():
    bus = TelemetryBus()
    monitor = SLOMonitor(
        bus,
        _config(
            targets=(
                SLOTarget("known", availability=0.99),
                SLOTarget("*", availability=0.5),
            )
        ),
    )
    assert monitor.target_for("known").availability == 0.99
    assert monitor.target_for("anything").availability == 0.5
    _end(bus, 1.0, ok=True, service="anything")
    assert monitor.events_seen == 1


def test_unmonitored_service_is_ignored():
    bus, monitor, transitions = _monitor()
    _end(bus, 1.0, ok=False, service="other")
    assert monitor.events_seen == 0
    assert transitions == []


# ----------------------------------------------------------------------
# Alert lifecycle / hysteresis
# ----------------------------------------------------------------------
def test_zero_pending_hold_promotes_immediately():
    bus, monitor, transitions = _monitor(pending_for_ns=0.0)
    for t in range(3):
        _end(bus, float(t), ok=False)
    assert [s for s, _ in transitions] == ["pending", "firing"]
    assert transitions[0][1] == transitions[1][1]  # same sweep
    assert len(monitor.firing()) == 1


def test_pending_hold_delays_firing():
    bus, monitor, transitions = _monitor(pending_for_ns=5.0)
    _end(bus, 0.0, ok=False)
    _end(bus, 1.0, ok=False)
    assert [s for s, _ in transitions] == ["pending"]
    _end(bus, 3.0, ok=False)  # held 3ns < 5ns: still pending
    assert [s for s, _ in transitions] == ["pending"]
    _end(bus, 6.0, ok=False)  # held 6ns >= 5ns: fires
    assert [s for s, _ in transitions] == ["pending", "firing"]


def test_pending_cancelled_when_burn_clears():
    bus, monitor, transitions = _monitor(pending_for_ns=50.0)
    _end(bus, 0.0, ok=False)
    _end(bus, 1.0, ok=False)
    assert [s for s, _ in transitions] == ["pending"]
    # Flood of good outcomes clears both windows before the hold expires.
    for t in range(2, 30):
        _end(bus, float(t), ok=True)
    assert [s for s, _ in transitions] == ["pending", "inactive"]
    assert monitor.alerts["svc"].state == AlertState.INACTIVE


def test_resolve_after_recovery_hysteresis():
    bus, monitor, transitions = _monitor(resolve_after_ns=20.0)
    for t in range(3):
        _end(bus, float(t), ok=False)
    assert [s for s, _ in transitions] == ["pending", "firing"]
    # Healthy stretch shorter than the resolve hold: still firing.
    for t in range(3, 15):
        _end(bus, float(t), ok=True)
    assert [s for s, _ in transitions] == ["pending", "firing"]
    # Keep healthy past the hold (and past window aging): resolves.
    for t in range(15, 40):
        _end(bus, float(t), ok=True)
    assert [s for s, _ in transitions] == ["pending", "firing", "resolved"]
    assert len(monitor.history) == 1
    assert monitor.firing() == []


def test_single_straggler_neither_fires_nor_flaps():
    bus, monitor, transitions = _monitor()
    for t in range(20):
        _end(bus, float(t), ok=(t != 10))  # one bad outcome mid-stream
    assert transitions == []


def test_fresh_alert_object_after_resolve():
    bus, monitor, _ = _monitor(resolve_after_ns=1.0)
    for t in range(3):
        _end(bus, float(t), ok=False)
    first = monitor.alerts["svc"]
    for t in range(3, 40):
        _end(bus, float(t), ok=True)
    assert monitor.history == [first]
    # Later sweeps track the service with a *new* (inactive) Alert.
    assert monitor.alerts.get("svc") is not first
    # A second burn creates a distinct Alert with its own lifecycle
    # (long enough to drag the slow window back over the threshold).
    for t in range(40, 55):
        _end(bus, float(t), ok=False)
    second = monitor.alerts["svc"]
    assert second is not first
    assert second.state == AlertState.FIRING
    assert monitor.fired_ever() == [first, second]


def test_explicit_sweep_resolves_quiet_service():
    bus, monitor, transitions = _monitor(resolve_after_ns=10.0)
    for t in range(3):
        _end(bus, float(t), ok=False)
    assert [s for s, _ in transitions] == ["pending", "firing"]
    # No further traffic; sweep far in the future ages the windows out.
    monitor.sweep(500.0)
    monitor.sweep(600.0)
    assert [s for s, _ in transitions] == ["pending", "firing", "resolved"]


def test_alert_spans_land_on_alerts_track():
    from repro.obs import SpanTracer
    from repro.sim import Environment

    bus = TelemetryBus()
    tracer = SpanTracer(Environment())
    tracer.attach(bus)
    monitor = SLOMonitor(bus, _config(resolve_after_ns=1.0))
    for t in range(3):
        _end(bus, float(t), ok=False)
    for t in range(3, 40):
        _end(bus, float(t), ok=True)
    spans = tracer.spans_for(track="alerts")
    names = [s.name for s in spans]
    assert any(n.startswith("alert slo-burn:svc") for n in names)
    firing = [s for s in spans if s.name == "alert slo-burn:svc"][0]
    assert firing.end_ns is not None
    assert monitor.history[0].peak_burn_fast >= 2.0


def test_stats_and_config_validation():
    bus, monitor, _ = _monitor()
    _end(bus, 1.0, ok=True)
    stats = monitor.stats()
    assert stats["events_seen"] == 1.0
    with pytest.raises(ValueError):
        SLOTarget("svc", availability=1.5)
    with pytest.raises(ValueError):
        SLOTarget("svc", latency_ns=-1.0)
    with pytest.raises(ValueError):
        SLOMonitorConfig(targets=())
    with pytest.raises(ValueError):
        _config(fast_window_ns=200.0)  # fast > slow
    with pytest.raises(ValueError):
        _config(burn_threshold=0.0)
