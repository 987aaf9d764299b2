"""Dashboard rendering tests plus the end-to-end telemetry acceptance run."""

import json

import pytest

from repro.obs import SLOMonitorConfig, SLOTarget
from repro.obs.dashboard import Dashboard, preview, run_demo_server
from repro.obs.telemetry import (
    AdmissionEvent,
    AlertFired,
    FaultInjected,
    MetricSample,
    RecoveryEvent,
    RequestEnd,
    TelemetryBus,
)


def _feed_requests(bus, n=10, service="svc", ok=True, latency_ns=1000.0):
    for i in range(n):
        bus.publish(
            RequestEnd(
                t_ns=float(i) * 1e3, service=service,
                latency_ns=latency_ns, ok=ok,
            )
        )


# ----------------------------------------------------------------------
# Unit: state intake and snapshot rendering
# ----------------------------------------------------------------------
def test_empty_dashboard_renders():
    dashboard = Dashboard(TelemetryBus())
    text = dashboard.snapshot()
    assert "fleet telemetry" in text
    assert "(no request telemetry yet)" in text
    assert "(none)" in text  # empty alert feed


def test_request_panel_accumulates():
    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    _feed_requests(bus, n=8, ok=True)
    _feed_requests(bus, n=2, ok=False)
    panel = dashboard.panels["svc"]
    assert panel.total == 10
    assert panel.ok_fraction() == pytest.approx(0.8)
    assert panel.window_rps() > 0
    text = dashboard.snapshot()
    assert "svc" in text
    assert "n=10" in text
    assert "ok  80.0%" in text


def test_slo_gauge_rendered_against_target():
    bus = TelemetryBus()
    slo = SLOMonitorConfig(
        targets=(SLOTarget("svc", availability=0.99, latency_ns=2000.0),)
    )
    dashboard = Dashboard(bus, slo=slo)
    _feed_requests(bus, latency_ns=1000.0)
    text = dashboard.snapshot()
    assert "of 2.0 us target" in text
    assert " 50.0%" in text  # p99 at half the target


def test_alert_feed_and_firing_set():
    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    bus.publish(AlertFired(t_ns=1.0, alert="slo-burn:svc", service="svc",
                           state="firing", burn_fast=12.0, burn_slow=11.0))
    assert set(dashboard.firing) == {"slo-burn:svc"}
    text = dashboard.snapshot()
    assert "[FIRING  ] slo-burn:svc" in text
    bus.publish(AlertFired(t_ns=2.0, alert="slo-burn:svc", service="svc",
                           state="resolved"))
    assert dashboard.firing == {}
    assert "[RESOLVED]" in dashboard.snapshot()


def test_recovery_fault_and_admission_counters():
    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    bus.publish(RecoveryEvent(t_ns=1.0, kind_name="breaker-open"))
    bus.publish(RecoveryEvent(t_ns=2.0, kind_name="watchdog-timeout"))
    bus.publish(RecoveryEvent(t_ns=3.0, kind_name="degraded-to-cpu"))
    bus.publish(FaultInjected(t_ns=4.0, category="pe-transient"))
    bus.publish(FaultInjected(t_ns=5.0, category="pe-transient"))
    bus.publish(AdmissionEvent(t_ns=6.0, service="svc", decision="shed"))
    bus.publish(MetricSample(t_ns=7.0, name="queue_depth", value=3.0))
    assert dashboard.open_breakers == 1
    assert dashboard.watchdog_timeouts == 1
    assert dashboard.degraded_to_cpu == 1
    assert dashboard.shed == 1
    assert dashboard.gauges["queue_depth"] == 3.0
    text = dashboard.snapshot()
    assert "breakers open 1" in text
    assert "pe-transient=2" in text
    bus.publish(RecoveryEvent(t_ns=8.0, kind_name="breaker-close"))
    assert dashboard.open_breakers == 0


def test_render_live_writes_ansi_redraw():
    import io

    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    stream = io.StringIO()
    dashboard.render_live(stream)
    assert stream.getvalue().startswith("\x1b[H\x1b[J")
    assert "fleet telemetry" in stream.getvalue()


def test_preview_unknown_experiment_is_none():
    assert preview("fig11") is None


# ----------------------------------------------------------------------
# Acceptance: seeded fig_faults chaos cell end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mgr_outage_demo():
    """Seeded relief/mgr-outage cell with the full telemetry plane."""
    return run_demo_server(
        architecture="relief", scenario="mgr-outage", requests=200, seed=0
    )


def test_chaos_run_fires_at_least_one_alert(mgr_outage_demo):
    monitor = mgr_outage_demo["monitor"]
    fired = monitor.fired_ever()
    assert len(fired) >= 1
    assert any(a.name == "slo-burn:StoreP" for a in fired)
    assert all(a.peak_burn_fast >= monitor.config.burn_threshold for a in fired)


def test_chaos_run_captures_incident_with_valid_trace(mgr_outage_demo, tmp_path):
    recorder = mgr_outage_demo["recorder"]
    assert len(recorder.incidents) >= 1
    path = recorder.write(str(tmp_path / "incident.json"))
    bundle = json.load(open(path))
    assert bundle["schema"] == "accelflow-incident/1"
    # The trace slice is valid Chrome/Perfetto trace-event JSON: a
    # traceEvents list whose entries all carry a known phase.
    events = bundle["trace"]["traceEvents"]
    assert isinstance(events, list) and events
    assert all(e["ph"] in ("M", "X", "i") for e in events)
    assert any(e["ph"] == "X" for e in events)  # real spans made it in
    assert any(e.get("cat") == "incident" for e in events)  # trigger marker
    # Fault->breach correlation names the injected outage.
    assert "slo-burn:StoreP" in recorder.correlation
    assert "manager-outage" in recorder.correlation["slo-burn:StoreP"]


def test_chaos_run_dashboard_shows_the_alert(mgr_outage_demo):
    dashboard = mgr_outage_demo["dashboard"]
    text = dashboard.snapshot()
    assert "StoreP" in text
    assert "slo-burn:StoreP" in text
    assert "FIRING" in text or "RESOLVED" in text
    assert "manager-outage" in text  # fault category line


def test_chaos_run_bus_saw_all_event_families(mgr_outage_demo):
    bus = mgr_outage_demo["bus"]
    counts = bus.counts
    assert counts.get("RequestEnd", 0) >= 200
    assert counts.get("SpanEnd", 0) > 0
    assert counts.get("FaultInjected", 0) > 0
    assert counts.get("AlertFired", 0) > 0
    assert counts.get("MetricSample", 0) > 0


def test_runner_preview_smoke():
    text = preview("fig_faults", scale="smoke", seed=0)
    assert text is not None
    assert text.startswith("[dashboard preview: fig_faults")
    assert "fleet telemetry" in text


# ----------------------------------------------------------------------
# Zero-interference: telemetry must not perturb the simulation
# ----------------------------------------------------------------------
def test_telemetry_does_not_change_results():
    """The full streaming plane observes; it must never perturb.

    The same seeded chaos run with and without telemetry has to produce
    identical per-request latencies and outcomes (the golden fixtures
    lock the disabled path; this locks disabled == enabled).
    """
    from repro.experiments.fig_faults import SCENARIOS
    from repro.obs import ObsConfig
    from repro.server.driver import RunConfig, drive, make_server
    from repro.workloads import social_network_services

    spec = next(s for s in social_network_services() if s.name == "StoreP")

    def run(obs):
        config = RunConfig(
            "accelflow",
            requests_per_service=60,
            seed=7,
            arrival_mode="poisson",
            rate_rps=2000.0,
            faults=SCENARIOS["transient"],
            obs=obs,
        )
        in_flight = drive(make_server(config), [spec], config)
        assert all(r.completed for r, _ in in_flight)
        return [
            (r.latency_ns, r.error, r.timed_out, r.completed)
            for r, _ in in_flight
        ]

    telemetry_obs = ObsConfig(
        trace=True, metrics=True, telemetry=True, flight_recorder=True,
        slo=SLOMonitorConfig(
            targets=(SLOTarget("StoreP", availability=0.99, latency_ns=1e6),),
            fast_window_ns=2e6, slow_window_ns=2e7,
        ),
    )
    assert run(None) == run(telemetry_obs)


# ----------------------------------------------------------------------
# Idle / degenerate fleet states (regression audit: empty snapshots)
# ----------------------------------------------------------------------
def test_idle_dashboard_with_slo_config_renders():
    # SLO targets configured but zero requests seen: the gauge path must
    # not divide by anything or index empty latency lists.
    slo = SLOMonitorConfig(
        targets=(SLOTarget("svc", availability=0.99, latency_ns=2e6),)
    )
    dashboard = Dashboard(TelemetryBus(), slo=slo)
    text = dashboard.snapshot()
    assert "(no request telemetry yet)" in text
    assert "slo" not in text.splitlines()[1]  # no gauge without a panel


def test_single_outcome_window_rps_is_zero():
    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    bus.publish(RequestEnd(t_ns=5.0, service="svc", latency_ns=1e3, ok=True))
    assert dashboard.panels["svc"].window_rps() == 0.0
    assert "svc" in dashboard.snapshot()


def test_same_timestamp_outcomes_do_not_divide_by_zero_span():
    bus = TelemetryBus()
    dashboard = Dashboard(bus)
    for _ in range(5):
        bus.publish(
            RequestEnd(t_ns=7.0, service="svc", latency_ns=1e3, ok=True)
        )
    assert dashboard.panels["svc"].window_rps() == 0.0
    dashboard.snapshot()


def test_latency_target_of_none_skips_gauge():
    slo = SLOMonitorConfig(
        targets=(SLOTarget("svc", availability=0.99, latency_ns=None),)
    )
    bus = TelemetryBus()
    dashboard = Dashboard(bus, slo=slo)
    _feed_requests(bus, n=4)
    assert "of" not in dashboard.snapshot()  # no "...% of X us target" line
