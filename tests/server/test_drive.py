"""The single-server open-loop harness and the shared run-config base."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.server import RunConfig, run_dedicated_service, run_experiment
from repro.server.driver import calibrate_slo, drive, make_server
from repro.workloads import social_network_services

BY_NAME = {s.name: s for s in social_network_services()}

#: Every field the two configs share, at non-default values.
SHARED = dict(
    architecture="relief",
    requests_per_service=30,
    seed=4,
    arrival_mode="poisson",
    rate_rps=1500.0,
    rate_scale=2.0,
    warmup_fraction=0.0,
    drain_ns=7e6,
)


def test_completed_run_stops_before_the_horizon():
    spec = BY_NAME["UniqId"]
    config = RunConfig(
        "accelflow",
        requests_per_service=25,
        arrival_mode="poisson",
        rate_rps=2000.0,
    )
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    assert len(in_flight) == 25
    assert all(request.completed for request, _ in in_flight)
    assert all(process.triggered for _, process in in_flight)
    assert server.env.now < config.horizon_ns([spec])


def test_horizon_cut_records_censored_requests():
    # Far past saturation with almost no drain: the horizon fires while
    # requests are still queued, and each one is censored, not lost.
    from repro.obs import ObsConfig
    from repro.obs.telemetry import Marker

    spec = BY_NAME["StoreP"]
    obs = ObsConfig(telemetry=True)
    config = RunConfig(
        "non-acc",
        requests_per_service=200,
        arrival_mode="poisson",
        rate_rps=500_000.0,
        drain_ns=1e4,
        warmup_fraction=0.0,
        obs=obs,
    )
    cell = run_dedicated_service(spec, config)
    result = cell["service"]
    run_end = obs.bus.recent([Marker])[-1]
    assert run_end.name == "run-end"
    assert result.censored > 0
    assert result.completed == run_end.args["completed"]
    assert result.completed + result.censored == run_end.args["submitted"]
    assert cell["elapsed_ns"] == pytest.approx(config.horizon_ns([spec]))


def test_shared_fields_give_identical_rate_and_horizon():
    run, cluster = RunConfig(**SHARED), ClusterConfig(**SHARED)
    services = [BY_NAME["UniqId"], BY_NAME["StoreP"]]
    for spec in services:
        assert run.offered_rps(spec) == cluster.offered_rps(spec) == 3000.0
    assert run.horizon_ns(services) == cluster.horizon_ns(services)
    assert run.horizon_ns(services) == 30 / 3000.0 * 1e9 + 7e6
    # Without an override each service offers its own scaled rate.
    spec = BY_NAME["UniqId"]
    assert RunConfig("accelflow").offered_rps(spec) == spec.rate_rps
    assert ClusterConfig().offered_rps(spec) == spec.rate_rps


def test_config_defaults_are_unchanged():
    run, cluster = RunConfig("accelflow"), ClusterConfig()
    assert run.requests_per_service == 300
    assert cluster.architecture == "accelflow"
    assert cluster.requests_per_service == 200
    with pytest.raises(TypeError):
        RunConfig()  # the architecture stays required


def test_zero_rate_raises_value_error():
    spec = BY_NAME["UniqId"]
    with pytest.raises(ValueError, match="rate must be positive"):
        run_experiment([spec], RunConfig("accelflow", rate_rps=0.0))
    with pytest.raises(ValueError, match="rate must be positive"):
        run_cluster([spec], ClusterConfig(rate_rps=0.0))


def test_calibrate_slo_runs_fault_free_at_the_same_seed():
    from repro.faults.campaign import SCENARIOS, cell_config

    spec = BY_NAME["StoreP"]
    config = cell_config("accelflow", seed=3, n_requests=30)
    faulty = replace(config, faults=SCENARIOS["wear"])
    slo_ns, in_flight, server = calibrate_slo(spec, faulty, 5.0)
    clean = drive(make_server(config), [spec], config)
    latencies = [request.latency_ns for request, _ in clean]
    assert server.fault_plane is None
    assert [r.latency_ns for r, _ in in_flight] == latencies
    assert slo_ns == 5.0 * (sum(latencies) / len(latencies))
