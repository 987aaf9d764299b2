"""Same-seed byte-identity across the public entry points.

Every run function in the repo is seeded through the named-stream CRN
plumbing (:mod:`repro.sim.rng`), so running the same config twice must
reproduce the run exactly — not "statistically close", but equal sample
lists, counters and stats dicts. These tests pin that contract across
the server driver, the cluster driver, fault injection, telemetry
on/off and the fluid tier, so a refactor that sneaks in an unseeded
``random.random()`` or dict-order dependence fails loudly.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    FluidConfig,
    HealthConfig,
    MachineFailure,
    run_cluster,
)
from repro.faults import FaultConfig
from repro.hw import MachineParams
from repro.obs import ObsConfig
from repro.server import RunConfig, run_experiment
from repro.workloads import social_network_services

ALL_SERVICES = {s.name: s for s in social_network_services()}
SERVICES = [ALL_SERVICES["UniqId"], ALL_SERVICES["StoreP"]]


# ---------------------------------------------------------------------------
# Fingerprints: everything observable about a run, as plain data.
# ---------------------------------------------------------------------------
def _service_fingerprint(service):
    return {
        "samples": tuple(service.recorder.samples),
        "completed": service.completed,
        "censored": service.censored,
        "errors": service.errors,
        "timeouts": service.timeouts,
        "components": dict(service.component_sums),
        "fluid_mass": service.fluid_completed_mass,
    }


def _server_fingerprint(result):
    return {
        "elapsed_ns": result.elapsed_ns,
        "services": {
            name: _service_fingerprint(s) for name, s in result.services.items()
        },
        "hardware": repr(result.hardware_stats),
        "orchestrator": repr(result.orchestrator_stats),
    }


def _cluster_fingerprint(result):
    return {
        "elapsed_ns": result.elapsed_ns,
        "samples": tuple(result.recorder.samples),
        "arrivals": result.arrivals,
        "completed": result.completed,
        "shed": result.shed,
        "lost": result.lost,
        "machines_failed": result.machines_failed,
        "machine_stats": repr(result.machine_stats),
        "fluid_stats": repr(result.fluid_stats),
        "services": {
            name: _service_fingerprint(s) for name, s in result.services.items()
        },
    }


# ---------------------------------------------------------------------------
# Server driver
# ---------------------------------------------------------------------------
SERVER_CONFIGS = {
    "dedicated-poisson": dict(arrival_mode="poisson", rate_rps=20000.0),
    "colocated-bursty": dict(arrival_mode="alibaba", colocated=True),
    "faults": dict(
        arrival_mode="poisson",
        rate_rps=20000.0,
        colocated=True,
        faults=FaultConfig(pe_transient_rate=0.05, dma_stall_rate=0.02),
    ),
    "telemetry-on": dict(
        arrival_mode="poisson",
        rate_rps=20000.0,
        colocated=True,
        obs=ObsConfig(metrics=True, telemetry=True),
    ),
    "placement-split": dict(
        arrival_mode="poisson",
        rate_rps=20000.0,
        machine_params=MachineParams().with_placement("pcie", {"tcp": "nic"}),
    ),
    "placement-faults": dict(
        arrival_mode="poisson",
        rate_rps=20000.0,
        machine_params=MachineParams().with_placement("pcie"),
        faults=FaultConfig(
            pe_transient_rate=0.05, dma_stall_rate=0.02, pe_stuck_mtbf_ns=3e6
        ),
    ),
    "gray-faults": dict(
        arrival_mode="poisson",
        rate_rps=20000.0,
        machine_params=MachineParams().with_placement(
            "on_package", {"tcp": "nic"}
        ),
        faults=FaultConfig(
            gray_limp_probability=0.5,
            gray_limp_factor=2.0,
            gray_slowdown_interval_ns=2e6,
            gray_slowdown_ns=1e6,
            gray_slowdown_factor=4.0,
            gray_slowdown_max=8,
        ),
    ),
}


def _run_server(seed, **overrides):
    config = RunConfig(
        architecture="accelflow",
        requests_per_service=60,
        seed=seed,
        warmup_fraction=0.0,
        **overrides,
    )
    return run_experiment(SERVICES, config)


class TestServerDeterminism:
    @pytest.mark.parametrize("name", sorted(SERVER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_reproduces_the_run(self, name, seed):
        overrides = SERVER_CONFIGS[name]
        a = _run_server(seed, **overrides)
        b = _run_server(seed, **overrides)
        assert _server_fingerprint(a) == _server_fingerprint(b)

    def test_different_seeds_differ(self):
        a = _run_server(0, **SERVER_CONFIGS["dedicated-poisson"])
        b = _run_server(1, **SERVER_CONFIGS["dedicated-poisson"])
        fa = _server_fingerprint(a)["services"]["UniqId"]["samples"]
        fb = _server_fingerprint(b)["services"]["UniqId"]["samples"]
        assert fa != fb

    def test_telemetry_is_a_pure_observer(self):
        # Turning the observability plane on must not perturb a single
        # latency sample: it reads simulation state, never draws from
        # the workload streams.
        base = SERVER_CONFIGS["dedicated-poisson"]
        plain = _run_server(3, **base)
        observed = _run_server(
            3, obs=ObsConfig(metrics=True, telemetry=True, trace=True), **base
        )
        for name in plain.services:
            assert (
                plain.services[name].recorder.samples
                == observed.services[name].recorder.samples
            )
        assert plain.elapsed_ns == observed.elapsed_ns


# ---------------------------------------------------------------------------
# Cluster driver
# ---------------------------------------------------------------------------
CLUSTER_CONFIGS = {
    "round-robin": dict(),
    "failures": dict(failures=(MachineFailure(at_ns=2e6, machine=1),)),
    "fluid-static": dict(
        fluid=FluidConfig(
            fluid_machines=(2,), calibrate_requests=15
        ),
        machines=3,
    ),
    "fluid-batched": dict(
        fluid=FluidConfig(
            fluid_machines=(1, 2),
            calibrate_requests=10,
            batched=True,
        ),
        machines=3,
    ),
    "health-plane": dict(
        machines=3,
        health=HealthConfig(
            latency_threshold_ns=5e5,
            eject_after=4,
            readmit_after_ns=2e6,
            trial_requests=4,
            probe_interval_ns=1e6,
            probe_max=64,
        ),
        faults=FaultConfig(
            gray_limp_probability=0.6, gray_limp_factor=3.0
        ),
    ),
}


def _run_cluster(seed, **overrides):
    config = ClusterConfig(
        policy="round-robin",
        machines=overrides.pop("machines", 2),
        requests_per_service=80,
        rate_rps=30000.0,
        seed=seed,
        arrival_mode="poisson",
        warmup_fraction=0.0,
        **overrides,
    )
    return run_cluster(SERVICES, config)


class TestClusterDeterminism:
    @pytest.mark.parametrize("name", sorted(CLUSTER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_seed_reproduces_the_run(self, name, seed):
        overrides = CLUSTER_CONFIGS[name]
        a = _run_cluster(seed, **dict(overrides))
        b = _run_cluster(seed, **dict(overrides))
        assert _cluster_fingerprint(a) == _cluster_fingerprint(b)

    def test_telemetry_is_a_pure_observer(self):
        plain = _run_cluster(3)
        observed = _run_cluster(3, obs=ObsConfig(metrics=True, telemetry=True))
        assert plain.recorder.samples == observed.recorder.samples
        assert plain.elapsed_ns == observed.elapsed_ns

    def test_fluid_zero_matches_no_fluid_config(self):
        # A fluid tier with no fluid machines must be a byte-identical
        # no-op: the tier draws only from its own named streams, so its
        # mere presence cannot shift any workload draw.
        plain = _run_cluster(5, machines=3)
        gated = _run_cluster(
            5,
            machines=3,
            fluid=FluidConfig(fluid_machines=()),
        )
        assert plain.recorder.samples == gated.recorder.samples
        assert plain.elapsed_ns == gated.elapsed_ns
        assert gated.fluid_stats["absorbed"] == 0.0
