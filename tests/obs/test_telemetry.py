"""Unit tests for the telemetry bus and its typed events."""

import pytest

from repro.obs.telemetry import (
    AlertFired,
    FaultInjected,
    Marker,
    MetricSample,
    RequestEnd,
    SpanEnd,
    TelemetryBus,
)


def _req(t_ns, service="svc", ok=True, **kwargs):
    return RequestEnd(t_ns=t_ns, service=service, latency_ns=10.0, ok=ok, **kwargs)


def test_publish_reaches_ring_and_subscribers():
    bus = TelemetryBus()
    seen = []
    bus.subscribe(seen.append)
    event = _req(1.0)
    bus.publish(event)
    assert seen == [event]
    assert list(bus.events) == [event]
    assert bus.published == 1
    assert len(bus) == 1


def test_kind_filter_includes_subclasses_only():
    bus = TelemetryBus()
    requests, markers = [], []
    bus.subscribe(requests.append, kinds=(RequestEnd,))
    bus.subscribe(markers.append, kinds=(Marker,))
    bus.publish(_req(1.0))
    bus.publish(Marker(t_ns=2.0, name="run-start"))
    bus.publish(MetricSample(t_ns=3.0, name="g", value=1.0))
    assert [e.kind for e in requests] == ["RequestEnd"]
    assert [e.kind for e in markers] == ["Marker"]


def test_ring_overwrite_is_counted_not_silent():
    bus = TelemetryBus(capacity=3)
    for i in range(5):
        bus.publish(_req(float(i)))
    assert len(bus) == 3
    assert bus.overwritten == 2
    assert bus.published == 5
    assert [e.t_ns for e in bus.events] == [2.0, 3.0, 4.0]


def test_counts_track_per_kind_totals():
    bus = TelemetryBus()
    bus.publish(_req(1.0))
    bus.publish(_req(2.0))
    bus.publish(FaultInjected(t_ns=3.0, category="pe-transient"))
    assert bus.counts == {"RequestEnd": 2, "FaultInjected": 1}
    stats = bus.stats()
    assert stats["count:RequestEnd"] == 2.0
    assert stats["published"] == 3.0


def test_unsubscribe_stops_delivery():
    bus = TelemetryBus()
    seen = []
    callback = bus.subscribe(seen.append)
    bus.publish(_req(1.0))
    bus.unsubscribe(callback)
    bus.publish(_req(2.0))
    assert len(seen) == 1


def test_reentrant_publish_from_handler_nests_cleanly():
    """A handler may publish (the SLO monitor fires alerts inline)."""
    bus = TelemetryBus()
    order = []

    def fire_alert(event):
        if isinstance(event, RequestEnd):
            order.append("request")
            bus.publish(
                AlertFired(
                    t_ns=event.t_ns, alert="a", service="svc", state="firing"
                )
            )
        else:
            order.append("alert")

    bus.subscribe(fire_alert)
    bus.publish(_req(1.0))
    # The nested alert is fully dispatched before publish() returns.
    assert order == ["request", "alert"]
    assert bus.counts == {"RequestEnd": 1, "AlertFired": 1}


def test_subscriber_added_mid_dispatch_sees_later_events_only():
    bus = TelemetryBus()
    late = []

    def add_subscriber(event):
        bus.subscribe(late.append)
        bus.unsubscribe(add_subscriber)

    bus.subscribe(add_subscriber)
    bus.publish(_req(1.0))  # snapshot: new subscriber not called for this
    bus.publish(_req(2.0))
    assert [e.t_ns for e in late] == [2.0]


def test_recent_filters_by_kind_and_time():
    bus = TelemetryBus()
    bus.publish(_req(1.0))
    bus.publish(Marker(t_ns=5.0, name="m"))
    bus.publish(_req(9.0))
    assert [e.t_ns for e in bus.recent(kinds=(RequestEnd,))] == [1.0, 9.0]
    assert [e.t_ns for e in bus.recent(since_ns=5.0)] == [5.0, 9.0]


def test_to_dict_is_json_friendly():
    event = SpanEnd(
        t_ns=4.0, name="work", track="pe", start_ns=1.0, end_ns=4.0, req=7
    )
    payload = event.to_dict()
    assert payload["kind"] == "SpanEnd"
    assert payload["name"] == "work"
    assert payload["req"] == 7


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        TelemetryBus(capacity=0)
