"""Outcome mapping through the serving façade.

Every terminal a request can reach in the cluster — served, shed at the
front door, admitted degraded, lost to a dead fleet, or censored by the
drain deadline — must surface as the matching :class:`Response` status
on the awaited future. These tests drive a real 2-machine cluster (no
mocks) with an unpaced clock, so they are deterministic.
"""

import asyncio
import math

import pytest

from repro.cluster import ClusterConfig, MachineFailure, SimulatedCluster
from repro.cluster.admission import AdmissionConfig
from repro.obs import ObsConfig
from repro.serve import Response, ServiceFacade, SimClock, build_scorecard
from repro.serve.facade import CENSORED
from repro.sim import Environment
from repro.workloads import social_network_services


def _services(names=("UniqId", "CPost")):
    return [s for s in social_network_services() if s.name in names]


def _facade(**config_kwargs):
    config_kwargs.setdefault("machines", 2)
    config_kwargs.setdefault("seed", 7)
    config_kwargs.setdefault("obs", ObsConfig(telemetry=True))
    config = ClusterConfig(**config_kwargs)
    return ServiceFacade.build(_services(), config), config


def _overload_admission(facade):
    """Warm the admission window with latencies far over the SLO."""
    controller = facade.cluster.admission
    for _ in range(controller.config.min_samples):
        controller.observe(100.0 * controller.config.slo_ns)
    assert controller.overloaded


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_facade_requires_telemetry_bus():
    config = ClusterConfig(machines=1, obs=None)
    with pytest.raises(ValueError, match="telemetry"):
        ServiceFacade(SimulatedCluster(config), _services())


def test_unknown_service_is_rejected():
    facade, _ = _facade()

    async def scenario():
        with pytest.raises(KeyError, match="NoSuchSvc"):
            await facade.submit("NoSuchSvc")

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Outcome mapping
# ----------------------------------------------------------------------
def test_served_request_resolves_ok():
    facade, _ = _facade()

    async def scenario():
        return await facade.submit("UniqId")

    response = asyncio.run(scenario())
    assert isinstance(response, Response)
    assert response.status == "ok"
    assert response.ok
    assert response.latency_ns > 0
    assert not response.degraded
    assert response.arrival_ns == pytest.approx(0.0)
    # The façade collected the same response synchronously.
    assert facade.responses == [response]
    assert facade.submitted == 1


def test_shed_request_resolves_with_shed_status():
    facade, _ = _facade(
        admission=AdmissionConfig(slo_ns=1e6, mode="shed", min_samples=10)
    )
    _overload_admission(facade)

    async def scenario():
        return await facade.submit("UniqId")

    response = asyncio.run(scenario())
    assert response.status == "shed"
    assert not response.ok
    assert response.latency_ns == 0.0
    assert not response.degraded


def test_degraded_request_serves_with_degraded_flag():
    facade, _ = _facade(
        admission=AdmissionConfig(slo_ns=1e6, mode="degrade", min_samples=10)
    )
    _overload_admission(facade)

    async def scenario():
        return await facade.submit("UniqId")

    response = asyncio.run(scenario())
    # Degrade admits (brown-out), so the request still completes...
    assert response.status == "ok"
    assert response.ok
    # ...but the Response records the degraded admission.
    assert response.degraded


def test_dead_fleet_resolves_lost():
    facade, _ = _facade(
        machines=1, failures=(MachineFailure(at_ns=10.0, machine=0),)
    )

    async def scenario():
        await facade.clock.advance_to(20.0)  # the only machine dies
        return await facade.submit("UniqId")

    response = asyncio.run(scenario())
    assert response.status == "lost"
    assert not response.ok
    assert response.error
    assert response.timed_out


def test_drain_deadline_censors_pending_requests():
    facade, _ = _facade()

    async def scenario():
        future = facade.submit_nowait("CPost", payload=4096)
        # A zero-length drain cannot cover any service time: the request
        # must come back censored rather than hanging forever.
        censored = await facade.drain(drain_ns=0.0)
        return censored, future.result()

    censored, response = asyncio.run(scenario())
    assert censored == 1
    assert response.status == CENSORED
    assert not response.ok
    assert response.service == "CPost"
    assert math.isnan(response.latency_ns)
    assert not facade._waiters


def test_drive_until_reports_dry_calendar():
    facade, _ = _facade()

    async def scenario():
        return await facade.drive_until(lambda: False)

    assert asyncio.run(scenario()) is False


# ----------------------------------------------------------------------
# Folding / scorecard
# ----------------------------------------------------------------------
def test_fold_matches_facade_counts():
    facade, config = _facade()

    async def scenario():
        for _ in range(5):
            await facade.submit("UniqId")
        await facade.drain()

    asyncio.run(scenario())
    result = facade.fold(config)
    assert result.arrivals == 5
    assert result.completed == 5
    assert "UniqId" in result.services


def test_scorecard_folds_mixed_outcomes():
    responses = [
        Response("Svc", "ok", True, 2000.0, 0.0, 1),
        Response("Svc", "ok", True, 4000.0, 10.0, 2, degraded=True),
        Response("Svc", "shed", False, 0.0, 20.0, 3),
        Response("Svc", "lost", False, 0.0, 30.0, 4),
        Response("Svc", CENSORED, False, float("nan"), 40.0, 5),
    ]
    card = build_scorecard(responses, elapsed_ns=1e9, alerts_fired=2)
    assert card["submitted"] == 5
    assert card["ok"] == 2
    assert card["shed"] == 1
    assert card["lost"] == 1
    assert card["censored"] == 1
    assert card["degraded"] == 1
    assert card["availability"] == pytest.approx(0.4)
    assert card["achieved_rps"] == pytest.approx(2.0)
    assert card["alerts_fired"] == 2
    assert "alerts fired 2" in card["table"]
    # NaN censored latencies never leak into the percentile columns
    # (interpolated P99 of the two finite latencies, 2 us and 4 us).
    assert card["p99_us"] == pytest.approx(3.98, rel=1e-3)


def test_scorecard_handles_empty_run():
    card = build_scorecard([], elapsed_ns=0.0)
    assert card["submitted"] == 0
    assert card["achieved_rps"] == 0.0
    assert "Achieved RPS" in card["table"]


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
def test_unpaced_clock_never_reads_the_wall():
    facade, _ = _facade()
    assert not facade.clock.paced
    assert facade.clock.wall_elapsed_s == 0.0

    async def scenario():
        await facade.clock.advance_to(5e6)

    asyncio.run(scenario())
    assert facade.env.now == 5e6
    # advance_to never pinned a wall origin in unpaced mode.
    assert facade.clock.wall_elapsed_s == 0.0
    assert facade.clock.max_lag_ns == 0.0


def test_paced_clock_advances_and_tracks_stats():
    facade, _ = _facade()
    # Enormous dilation: paced code paths run, but the wall wait for a
    # few sim milliseconds is microscopic — the test stays fast.
    facade.clock = SimClock(facade.env, dilation=1e6)

    async def scenario():
        response = await facade.submit("UniqId")
        await facade.clock.advance_to(2e6)
        return response

    response = asyncio.run(scenario())
    assert response.status == "ok"
    assert facade.env.now >= 2e6
    stats = facade.clock.stats()
    assert stats["paced"] is True
    assert stats["wall_elapsed_s"] > 0.0


def test_lagging_paced_clock_still_yields_to_the_loop():
    # At this dilation the wall clock has always paid for the next
    # target, as when the sim cannot keep up: every advance_to catches
    # up at once. A loop of them (an open-loop injector) must still hand
    # control back, or the stop timer below never gets to run.
    env = Environment()
    clock = SimClock(env, dilation=1e15)
    stop = asyncio.Event()

    async def inject():
        for step in range(1, 100_001):
            if stop.is_set():
                return step
            await clock.advance_to(step * 1e3)
        raise AssertionError("advance_to never yielded to the event loop")

    async def scenario():
        task = asyncio.ensure_future(inject())
        await asyncio.sleep(0.01)
        stop.set()
        return await task

    steps = asyncio.run(scenario())
    assert steps > 1
    assert env.now == (steps - 1) * 1e3


def test_clock_rejects_nonpositive_dilation():
    facade, _ = _facade()
    with pytest.raises(ValueError, match="dilation"):
        SimClock(facade.env, dilation=0.0)
