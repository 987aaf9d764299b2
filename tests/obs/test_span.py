"""Unit tests for the span tracer."""

from dataclasses import replace

import pytest

from repro.obs import SpanTracer, TelemetryBus
from repro.obs.telemetry import (
    AdmissionEvent,
    AlertFired,
    FaultInjected,
    HealthEvent,
    Marker,
    RecoveryEvent,
)
from repro.sim import Environment


class FakeSpec:
    def __init__(self, name):
        self.name = name


class FakeRequest:
    _next = iter(range(10_000, 20_000))

    def __init__(self, service="svc"):
        self.rid = next(self._next)
        self.spec = FakeSpec(service)


def test_begin_end_records_duration():
    env = Environment()
    tracer = SpanTracer(env)
    span = tracer.begin("work", "trackA", cat="test")

    def advance(env):
        yield env.timeout(5.0)

    env.process(advance(env))
    env.run()
    tracer.end(span, extra=1)
    assert span.duration_ns == 5.0
    assert span.args == {"extra": 1}
    assert tracer.tracks() == ["trackA"]


def test_complete_and_instant():
    env = Environment()
    tracer = SpanTracer(env)
    tracer.complete("x", "t", 10.0, 30.0)
    marker = tracer.instant("m", "t")
    assert len(tracer) == 2
    assert tracer.spans[0].duration_ns == 20.0
    assert marker.is_instant


def test_sample_rate_one_keeps_all():
    env = Environment()
    tracer = SpanTracer(env, sample_rate=1.0)
    taken = [tracer.sample_request(FakeRequest()) for _ in range(10)]
    assert all(taken)


def test_stride_sampling_is_deterministic():
    env = Environment()
    tracer = SpanTracer(env, sample_rate=0.25)
    taken = [tracer.sample_request(FakeRequest()) for _ in range(20)]
    assert sum(taken) == 5
    # Same stride pattern regardless of global request-id offsets.
    tracer2 = SpanTracer(Environment(), sample_rate=0.25)
    taken2 = [tracer2.sample_request(FakeRequest()) for _ in range(20)]
    assert taken == taken2


def test_zero_rate_samples_nothing():
    tracer = SpanTracer(Environment(), sample_rate=0.0)
    assert not any(tracer.sample_request(FakeRequest()) for _ in range(5))


def test_service_filter():
    tracer = SpanTracer(Environment(), services=["keep"])
    assert tracer.sample_request(FakeRequest("keep"))
    assert not tracer.sample_request(FakeRequest("drop"))


def test_local_ids_are_trace_relative():
    tracer = SpanTracer(Environment())
    first, second = FakeRequest(), FakeRequest()
    tracer.sample_request(first)
    tracer.sample_request(second)
    assert tracer.local_id(first.rid) == 0
    assert tracer.local_id(second.rid) == 1
    assert tracer.local_id(99999999) is None


def test_finish_request_stops_sampling_but_keeps_ids():
    tracer = SpanTracer(Environment())
    request = FakeRequest()
    tracer.sample_request(request)
    assert tracer.is_sampled(request.rid)
    tracer.finish_request(request.rid)
    assert not tracer.is_sampled(request.rid)
    assert tracer.local_id(request.rid) == 0


def test_max_spans_drops_and_counts():
    tracer = SpanTracer(Environment(), max_spans=2)
    tracer.complete("a", "t", 0.0, 1.0)
    tracer.complete("b", "t", 0.0, 1.0)
    dropped = tracer.complete("c", "t", 0.0, 1.0)
    assert dropped is None
    assert len(tracer) == 2
    assert tracer.dropped == 1
    tracer.end(dropped)  # ending a dropped span is a no-op


def test_spans_for_filters():
    tracer = SpanTracer(Environment())
    request = FakeRequest()
    tracer.sample_request(request)
    tracer.complete("a", "t1", 0.0, 1.0, rid=request.rid)
    tracer.complete("b", "t2", 0.0, 1.0)
    assert [s.name for s in tracer.spans_for(track="t1")] == ["a"]
    assert [s.name for s in tracer.spans_for(req=0)] == ["a"]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SpanTracer(Environment(), sample_rate=1.5)
    with pytest.raises(ValueError):
        SpanTracer(Environment(), max_spans=0)


def test_close_open_spans_auto_closes_with_marker():
    env = Environment()
    tracer = SpanTracer(env)
    open_span = tracer.begin("stuck", "trackA")
    tracer.complete("done", "trackA", 0.0, 1.0)

    def advance(env):
        yield env.timeout(7.0)

    env.process(advance(env))
    env.run()
    closed = tracer.close_open_spans()
    assert closed == 1
    assert tracer.unclosed == 1
    assert open_span.end_ns == 7.0
    assert open_span.args == {"unclosed": True}
    # Idempotent: nothing left open on a second pass.
    assert tracer.close_open_spans() == 0
    assert tracer.unclosed == 1


def test_span_lifecycle_publishes_to_bus():
    from repro.obs import TelemetryBus
    from repro.obs.telemetry import SpanEnd

    env = Environment()
    tracer = SpanTracer(env)
    tracer.bus = TelemetryBus()
    span = tracer.begin("work", "t")
    assert tracer.bus.published == 0  # begin does not publish
    tracer.end(span)
    tracer.complete("c", "t", 0.0, 2.0)
    tracer.instant("i", "t")
    events = tracer.bus.recent(kinds=(SpanEnd,))
    assert [e.name for e in events] == ["work", "c", "i"]
    leftover = tracer.begin("stuck", "t")
    tracer.close_open_spans()
    assert tracer.bus.recent(kinds=(SpanEnd,))[-1].name == "stuck"
    assert leftover.args == {"unclosed": True}


# ----------------------------------------------------------------------
# Facts drawn from the telemetry bus
# ----------------------------------------------------------------------
FACTS = [
    (Marker(t_ns=3.0, name="machine-added", args={"machine": 1}),
     "cluster", "machine-added", {"machine": 1}),
    (AdmissionEvent(t_ns=3.0, service="svc", decision="shed", rid=7),
     "cluster", "shed", {"service": "svc"}),
    (HealthEvent(t_ns=3.0, machine=2, state="ejected", score=0.5,
                 args={"why": "p99"}),
     "cluster", "machine-ejected", {"machine": 2, "score": 0.5, "why": "p99"}),
    (FaultInjected(t_ns=3.0, category="pe-transient", args={"accel": "tcp"}),
     "faults", "pe-transient", {"accel": "tcp"}),
    (RecoveryEvent(t_ns=3.0, kind_name="watchdog-timeout",
                   args={"step": "tcp", "rid": 4}),
     "faults", "watchdog-timeout", {"step": "tcp", "rid": 4}),
    (AlertFired(t_ns=3.0, alert="slo-burn:svc", service="svc",
                state="pending", burn_fast=20.123, args={"k": 1}),
     "alerts", "alert-pending slo-burn:svc",
     {"service": "svc", "burn_fast": 20.12, "k": 1}),
    (AlertFired(t_ns=3.0, alert="slo-burn:svc", service="svc",
                state="inactive"),
     "alerts", "alert-cancelled slo-burn:svc", {"service": "svc"}),
]


@pytest.mark.parametrize(
    "event, track, name, args", FACTS, ids=[f[2].split()[0] for f in FACTS]
)
def test_attached_tracer_draws_each_fact_once(event, track, name, args):
    bus = TelemetryBus()
    tracer = SpanTracer(Environment())
    tracer.attach(bus)
    bus.publish(event)
    (span,) = tracer.spans
    assert (span.track, span.name, span.args) == (track, name, args)
    assert span.is_instant and span.start_ns == 3.0 and span.req is None
    if isinstance(event, AlertFired):
        bus.publish(replace(event, t_ns=4.0, state="firing", burn_slow=9.0))
        bus.publish(replace(event, t_ns=9.0, state="resolved"))
        closed = [s for s in tracer.spans if not s.is_instant]
        assert [(s.name, s.track, s.start_ns, s.end_ns) for s in closed] == [
            ("alert slo-burn:svc", "alerts", 4.0, 9.0)
        ]
        assert closed[0].args["resolved"] is True


@pytest.fixture(scope="module")
def faulty_traced_run():
    from repro.faults import FaultConfig
    from repro.obs import ObsConfig
    from repro.server import RunConfig, run_experiment
    from repro.workloads import social_network_services

    obs = ObsConfig(trace=True)
    run_experiment(
        [s for s in social_network_services() if s.name == "StoreP"],
        RunConfig(
            "accelflow", requests_per_service=80, seed=0,
            arrival_mode="poisson", rate_rps=20000, colocated=True,
            faults=FaultConfig(pe_transient_rate=0.05, dma_stall_rate=0.02),
            obs=obs,
        ),
    )
    return obs


def test_faulty_traced_run_draws_fault_instants(faulty_traced_run):
    names = {s.name for s in faulty_traced_run.tracer.spans_for(track="faults")}
    assert {"pe-transient", "dma-stall"} <= names


def test_trace_without_streaming_publishes_no_span_end(faulty_traced_run):
    counts = faulty_traced_run.bus.counts
    assert counts["FaultInjected"] > 0 and counts["Marker"] == 2
    assert "SpanEnd" not in counts
