"""End-to-end fault injection: every fault recovers or terminates.

Each test cranks one fault source of the hardware fault plane and
checks the recovery plane's contract: requests never hang, the expected
recovery mechanism (retry, watchdog, breaker, DMA re-issue, CPU
degradation) actually fires, and the whole run stays deterministic for
a fixed seed. ``CHAOS_SEED`` rotates the seeds in CI so successive
pipelines explore different fault interleavings.
"""

import os

from repro.faults import FaultConfig
from repro.server import SimulatedServer
from repro.workloads import social_network_services

SERVICES = {s.name: s for s in social_network_services()}

#: CI chaos knob: every seed must satisfy the same invariants.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def run_all(server, spec, count):
    requests = [server.make_request(spec) for _ in range(count)]
    procs = [server.submit(r) for r in requests]
    server.env.run(until=server.env.all_of(procs))
    assert all(r.completed for r in requests), "a request never terminated"
    return requests


def make_server(architecture="accelflow", faults=None, seed=CHAOS_SEED, **kw):
    return SimulatedServer(architecture, faults=faults, seed=seed, **kw)


class TestDisabledPlane:
    def test_zero_rate_config_installs_no_plane(self):
        server = make_server(faults=FaultConfig())
        assert server.fault_plane is None
        assert server.orchestrator.recovery is None

    def test_zero_rate_config_matches_no_config_exactly(self):
        """The fault plane is cost-free when disabled: same seeds, same
        latencies, same stats, bit for bit."""
        baseline = make_server(faults=None)
        inert = make_server(faults=FaultConfig())
        spec = SERVICES["StoreP"]
        base_requests = run_all(baseline, spec, 10)
        inert_requests = run_all(inert, spec, 10)
        assert [r.latency_ns for r in base_requests] == [
            r.latency_ns for r in inert_requests
        ]
        assert baseline.orchestrator.stats() == inert.orchestrator.stats()


class TestTransientFaults:
    def test_moderate_rate_recovers_via_retries(self):
        server = make_server(faults=FaultConfig(pe_transient_rate=0.2))
        requests = run_all(server, SERVICES["UniqId"], 10)
        recovery = server.orchestrator.recovery
        assert server.fault_plane.injected["pe-transient"] > 0
        assert recovery.step_retries > 0
        assert sum(r.step_retries for r in requests) == recovery.step_retries
        assert not any(r.error for r in requests)

    def test_certain_faults_degrade_to_cpu(self):
        """Rate 1.0: every attempt corrupts, retries exhaust, and the
        request survives on the CPU fallback path."""
        server = make_server(
            faults=FaultConfig(pe_transient_rate=1.0, backoff_base_ns=100.0)
        )
        requests = run_all(server, SERVICES["UniqId"], 5)
        recovery = server.orchestrator.recovery
        assert recovery.degraded_to_cpu > 0
        assert all(r.fell_back for r in requests)
        assert not any(r.error for r in requests)

    def test_breakers_trip_under_sustained_faults(self):
        server = make_server(
            faults=FaultConfig(
                pe_transient_rate=1.0,
                backoff_base_ns=100.0,
                breaker_failure_threshold=2,
            )
        )
        run_all(server, SERVICES["UniqId"], 5)
        assert server.orchestrator.recovery.breaker_trips > 0


class TestWedgedPes:
    def test_watchdog_rescues_wedged_dispatches(self):
        server = make_server(
            faults=FaultConfig(
                pe_wedge_rate=0.5,
                pe_wedge_ns=1e6,
                watchdog_timeout_ns=1e5,
                backoff_base_ns=100.0,
            )
        )
        requests = run_all(server, SERVICES["UniqId"], 8)
        recovery = server.orchestrator.recovery
        assert server.fault_plane.injected["pe-wedge"] > 0
        assert recovery.watchdog_timeouts > 0
        assert all(r.completed for r in requests)

    def test_short_wedges_ride_out_without_watchdog(self):
        """Wedges shorter than the watchdog budget just add latency."""
        server = make_server(
            faults=FaultConfig(
                pe_wedge_rate=1.0, pe_wedge_ns=1e4, watchdog_timeout_ns=5e6
            )
        )
        requests = run_all(server, SERVICES["UniqId"], 3)
        recovery = server.orchestrator.recovery
        assert server.fault_plane.injected["pe-wedge"] > 0
        assert recovery.watchdog_timeouts == 0
        assert not any(r.error or r.fell_back for r in requests)


class TestStuckPes:
    def test_stuck_pes_repair_and_work_continues(self):
        server = make_server(
            faults=FaultConfig(pe_stuck_mtbf_ns=5e4, pe_repair_ns=1e5)
        )
        requests = run_all(server, SERVICES["StoreP"], 10)
        assert server.fault_plane.injected["pe-stuck"] > 0
        assert all(r.completed for r in requests)
        # Repair: after the run drains, every accelerator has its full
        # PE complement back unless a repair window is still open.
        server.env.run()  # let remaining injector windows expire
        for accel in server.hardware.all_accelerators():
            assert len(accel._free_pes.items) == len(accel.pes)


class TestDmaFaults:
    def test_stalls_add_latency_not_errors(self):
        server = make_server(
            faults=FaultConfig(dma_stall_rate=0.5, dma_stall_ns=5e4)
        )
        requests = run_all(server, SERVICES["StoreP"], 5)
        assert server.fault_plane.injected["dma-stall"] > 0
        assert not any(r.error for r in requests)

    def test_corruption_retries_then_recovers(self):
        server = make_server(
            faults=FaultConfig(dma_corruption_rate=0.3, backoff_base_ns=100.0)
        )
        requests = run_all(server, SERVICES["StoreP"], 10)
        recovery = server.orchestrator.recovery
        assert server.fault_plane.injected["dma-corruption"] > 0
        assert recovery.dma_retries > 0
        # 0.3^3 per transfer: the odd fatal exhaustion is possible but
        # every request still terminated with an explicit status.
        assert all(r.completed for r in requests)

    def test_certain_corruption_fails_requests_cleanly(self):
        server = make_server(
            faults=FaultConfig(dma_corruption_rate=1.0, backoff_base_ns=100.0)
        )
        requests = run_all(server, SERVICES["StoreP"], 5)
        recovery = server.orchestrator.recovery
        assert recovery.dma_fatal > 0
        assert any(r.error for r in requests)


class TestNocFaults:
    def test_link_flaps_block_then_release(self):
        server = make_server(
            faults=FaultConfig(noc_flap_interval_ns=2e4, noc_flap_down_ns=5e4)
        )
        requests = run_all(server, SERVICES["StoreP"], 10)
        assert server.fault_plane.injected["noc-flap"] > 0
        assert not any(r.error for r in requests)
        server.env.run()
        assert not server.fault_plane._down  # all links back up

    def test_degraded_links_slow_transfers(self):
        clean = make_server(seed=7)
        worn = make_server(
            seed=7, faults=FaultConfig(noc_degraded_factor=4.0)
        )
        spec = SERVICES["StoreP"]
        clean_requests = run_all(clean, spec, 5)
        worn_requests = run_all(worn, spec, 5)
        assert sum(r.latency_ns for r in worn_requests) > sum(
            r.latency_ns for r in clean_requests
        )


class TestManagerOutages:
    CONFIG = FaultConfig(manager_outage_interval_ns=1e5, manager_outage_ns=5e5)

    def test_relief_stalls_behind_dark_manager(self):
        faulted = make_server("relief", faults=self.CONFIG, seed=3)
        clean = make_server("relief", seed=3)
        spec = SERVICES["StoreP"]
        faulted_requests = run_all(faulted, spec, 5)
        clean_requests = run_all(clean, spec, 5)
        assert faulted.fault_plane.injected["manager-outage"] > 0
        assert sum(r.latency_ns for r in faulted_requests) > sum(
            r.latency_ns for r in clean_requests
        )

    def test_decentralized_architectures_have_no_manager_to_lose(self):
        server = make_server("accelflow", faults=self.CONFIG, seed=3)
        requests = run_all(server, SERVICES["StoreP"], 5)
        assert server.fault_plane.injected["manager-outage"] == 0
        assert not any(r.error for r in requests)


class TestDeterminism:
    CONFIG = FaultConfig(
        pe_transient_rate=0.2,
        pe_wedge_rate=0.1,
        pe_wedge_ns=5e5,
        dma_stall_rate=0.2,
        dma_corruption_rate=0.1,
        noc_flap_interval_ns=1e5,
        watchdog_timeout_ns=2e5,
        backoff_base_ns=100.0,
        # Gray categories ride in the same mix: their injectors draw
        # from their own named streams, so adding them must not detune
        # the fail-stop draws — and the whole mix stays reproducible.
        gray_limp_probability=0.5,
        gray_limp_factor=2.0,
        gray_slowdown_interval_ns=5e5,
        gray_slowdown_ns=3e5,
        gray_slowdown_factor=3.0,
        gray_slowdown_max=8,
        retry_budget_tokens=64.0,
        retry_budget_refill_per_s=1000.0,
    )

    def _run(self, seed):
        server = make_server(faults=self.CONFIG, seed=seed)
        requests = run_all(server, SERVICES["StoreP"], 10)
        return (
            [r.latency_ns for r in requests],
            server.fault_plane.stats(),
            server.orchestrator.recovery.stats(),
        )

    def test_same_seed_same_faults_same_outcome(self):
        assert self._run(CHAOS_SEED) == self._run(CHAOS_SEED)

    def test_different_seed_different_interleaving(self):
        latencies_a, _, _ = self._run(CHAOS_SEED)
        latencies_b, _, _ = self._run(CHAOS_SEED + 1)
        assert latencies_a != latencies_b
