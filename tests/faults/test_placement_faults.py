"""Placement x fault interaction: hop faults only bite off-package.

A PCIe link flap can only hurt a machine that actually has a PCIe hop;
an all-on-package machine has no such link, so the very same
:class:`FaultConfig` must leave it byte-identical. The seeded runs here
pin both directions of that contract, plus the NIC congestion window.
``CHAOS_SEED`` rotates the seed in CI (see the chaos job).
"""

import os

from repro.faults import FaultConfig
from repro.hw import MachineParams
from repro.server.driver import RunConfig, drive, make_server
from repro.sim import LatencyRecorder
from repro.workloads import social_network_services

SERVICE = "StoreP"
RATE_RPS = 2000.0
N_REQUESTS = 60
SEED = int(os.environ.get("CHAOS_SEED", "0"))

PCIE_FLAPS = FaultConfig(
    pcie_flap_interval_ns=3e6,
    pcie_flap_down_ns=5e5,
    pcie_flap_max=64,
)
NIC_CONGESTION = FaultConfig(
    nic_congestion_interval_ns=3e6,
    nic_congestion_ns=1e6,
    nic_congestion_factor=8.0,
    nic_congestion_max=64,
)


def _measure(placement, faults, seed=SEED):
    """One seeded open-loop run; returns (samples, p99, server)."""
    spec = [s for s in social_network_services() if s.name == SERVICE][0]
    config = RunConfig(
        "accelflow",
        requests_per_service=N_REQUESTS,
        seed=seed,
        machine_params=MachineParams().with_placement(placement),
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        faults=faults,
    )
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    assert all(r.completed for r, _ in in_flight)
    recorder = LatencyRecorder(warmup_fraction=0.0)
    for request, _ in in_flight:
        recorder.record(request.latency_ns)
    return tuple(recorder.samples), recorder.mean(), server


class TestPcieFlap:
    def test_flap_degrades_pcie_placement(self):
        """A down window only ever *delays* crossings, so with the same
        arrivals the mean strictly rises (P99 can dodge a window when
        the tail request happens to miss it, so mean is the robust
        monotone signal under CHAOS_SEED rotation)."""
        clean_samples, clean_mean, _ = _measure("pcie", None)
        flapped_samples, flapped_mean, server = _measure("pcie", PCIE_FLAPS)
        assert server.fault_plane.injected["pcie-flap"] > 0
        assert flapped_samples != clean_samples
        assert flapped_mean > clean_mean

    def test_flap_leaves_on_package_byte_identical(self):
        """Same FaultConfig, but nothing lives behind PCIe: no injector
        starts and not one sample moves."""
        clean_samples, _, _ = _measure("on_package", None)
        flapped_samples, _, server = _measure("on_package", PCIE_FLAPS)
        assert server.fault_plane is not None  # the config IS enabled
        assert server.fault_plane.injected["pcie-flap"] == 0
        assert flapped_samples == clean_samples

    def test_flap_counts_surface_in_stats(self):
        _, _, server = _measure("pcie", PCIE_FLAPS)
        stats = server.fault_plane.stats()
        assert stats["pcie-flap"] == float(server.fault_plane.injected["pcie-flap"])
        assert stats["total_injected"] >= stats["pcie-flap"]


class TestNicCongestion:
    def test_congestion_degrades_nic_placement(self):
        clean_samples, clean_mean, _ = _measure("nic", None)
        congested_samples, congested_mean, server = _measure(
            "nic", NIC_CONGESTION
        )
        assert server.fault_plane.injected["nic-congestion"] > 0
        assert congested_samples != clean_samples
        assert congested_mean > clean_mean

    def test_congestion_leaves_pcie_placement_byte_identical(self):
        """Per-placement scoping: a NIC congestion window must not slow
        a machine whose accelerators sit behind PCIe."""
        clean_samples, _, _ = _measure("pcie", None)
        congested_samples, _, server = _measure("pcie", NIC_CONGESTION)
        # The injector runs (the fabric exists) but its windows target
        # the NIC hop, which this machine never crosses.
        assert server.fault_plane.injected["nic-congestion"] > 0
        assert congested_samples == clean_samples


class TestConfigKnobs:
    def test_hop_knobs_enable_the_plane(self):
        assert FaultConfig(pcie_flap_interval_ns=1e6).enabled
        assert FaultConfig(nic_congestion_interval_ns=1e6).enabled
        assert not FaultConfig().enabled

    def test_congestion_factor_validated(self):
        import pytest

        with pytest.raises(ValueError, match="nic_congestion_factor"):
            FaultConfig(nic_congestion_factor=0.5).validate()

    def test_seeded_runs_reproduce(self):
        a = _measure("pcie", PCIE_FLAPS)[0]
        b = _measure("pcie", PCIE_FLAPS)[0]
        assert a == b
