"""Unit tests of the cluster fluid tier: absorption, accounting, obs."""

import pytest

from repro.cluster import ClusterConfig, FluidConfig, run_cluster
from repro.obs import ObsConfig
from repro.workloads import social_network_services

ALL_SERVICES = {s.name: s for s in social_network_services()}


def services(*names):
    return [ALL_SERVICES[name] for name in names]


def _run(fluid, seed=0, requests=100, failures=(), obs=None):
    config = ClusterConfig(
        policy="round-robin",
        machines=4,
        requests_per_service=requests,
        rate_rps=30000.0,
        seed=seed,
        arrival_mode="poisson",
        warmup_fraction=0.0,
        failures=failures,
        obs=obs,
        fluid=fluid,
    )
    return run_cluster(services("UniqId", "StoreP"), config)


class TestAbsorption:
    def test_static_fluid_machines_absorb_after_calibration(self):
        result = _run(
            FluidConfig(fluid_machines=(2, 3),
                        calibrate_requests=15)
        )
        stats = result.fluid_stats
        assert stats["absorbed"] > 0
        assert stats["fluid_fraction"] == 0.5
        # Absorbed work is accounted analytically, not lost.
        assert result.merged_completed() + stats["residual_mass"] == (
            pytest.approx(result.arrivals, abs=0.5)
        )
        # Fluid machines stopped dispatching discrete work once fluid.
        fluid_dispatch = [
            m["dispatched"] for m in result.machine_stats if m["index"] in (2, 3)
        ]
        exact_dispatch = [
            m["dispatched"] for m in result.machine_stats if m["index"] in (0, 1)
        ]
        assert sum(exact_dispatch) > sum(fluid_dispatch)

    def test_explicit_service_times_skip_calibration(self):
        # With overrides for every service the tier is ready at t=0 and
        # absorbs from the very first request routed to a fluid machine.
        overrides = {"UniqId": 100_000.0, "StoreP": 500_000.0}
        result = _run(
            FluidConfig(fluid_machines=(2, 3),
                        service_time_ns=overrides)
        )
        per_service = result.fluid_stats["services"]
        assert per_service["UniqId"]["arrived_mass"] > 0
        # The fluid mean tracks the override (queueing adds on top).
        assert per_service["UniqId"]["mean_latency_ns"] >= 100_000.0

    def test_service_result_merges_fluid_estimates(self):
        result = _run(
            FluidConfig(fluid_machines=(2, 3),
                        calibrate_requests=15)
        )
        merged = 0.0
        for name, service in result.services.items():
            assert service.fluid_completed_mass > 0, name
            assert service.merged_mean_ns() > 0
            assert service.merged_p99_ns() > 0
            merged += service.merged_completed()
        assert merged == pytest.approx(result.merged_completed(), rel=1e-9)


class TestFailuresAndObs:
    def test_fluid_machine_failure_loses_mass_not_the_run(self):
        from repro.cluster import MachineFailure

        result = _run(
            FluidConfig(fluid_machines=(2, 3),
                        calibrate_requests=10),
            failures=(MachineFailure(at_ns=2.5e6, machine=2),),
        )
        stats = result.fluid_stats
        assert result.machines_failed == 1
        # The dead machine's queued mass is accounted as lost, and the
        # remaining work still balances.
        accounted = (
            result.merged_completed()
            + stats["residual_mass"]
            + stats["lost_mass"]
            + result.shed
            + result.lost
        )
        assert accounted == pytest.approx(result.arrivals, abs=1.0)

    def test_fluid_gauges_reach_the_dashboard(self):
        from repro.obs.dashboard import Dashboard

        obs = ObsConfig(metrics=True, telemetry=True)
        result = _run(
            FluidConfig(fluid_machines=(2, 3),
                        calibrate_requests=10),
            obs=obs,
        )
        cluster = result.cluster
        dashboard = Dashboard(cluster.bus)
        # Replay the bus's ring buffer into a fresh dashboard view.
        for event in list(cluster.bus.events):
            dashboard._on_event(event)
        assert "cluster:fluid_fraction" in dashboard.gauges
        snapshot = dashboard.snapshot()
        assert "fluid tier" in snapshot
        assert "% of fleet" in snapshot

    def test_no_fluid_config_publishes_no_fluid_gauges(self):
        obs = ObsConfig(metrics=True, telemetry=True)
        result = _run(None, obs=obs)
        names = {
            event.name
            for event in list(result.cluster.bus.events)
            if type(event).__name__ == "MetricSample"
        }
        assert "cluster:fluid_fraction" not in names
