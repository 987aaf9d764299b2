"""Recovery x placement interaction contract.

A cross-cutting invariant that neither the recovery tests nor the
placement tests pin on their own: a circuit breaker opening on a
``pcie``-placed accelerator must not let the orchestrator route the
same kind's work around the hop — the placement is physical, so
recovery can wait, retry, or degrade to the CPU, but it can never
conjure an on-package instance of a kind that lives on the card.

``CHAOS_SEED`` rotates the seed in CI.
"""

import os

from repro.faults import FaultConfig
from repro.hw import MachineParams
from repro.hw.placement import Placement
from repro.server.driver import RunConfig, drive, make_server
from repro.workloads import social_network_services

SERVICE = "StoreP"
RATE_RPS = 2000.0
N_REQUESTS = 40
SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _run(placement_overrides, faults, seed=SEED):
    spec = [s for s in social_network_services() if s.name == SERVICE][0]
    config = RunConfig(
        "accelflow",
        requests_per_service=N_REQUESTS,
        seed=seed,
        machine_params=MachineParams().with_placement(
            "on_package", placement_overrides
        ),
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        faults=faults,
    )
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    return [r for r, _ in in_flight], server


class TestBreakerRespectsPlacement:
    #: Transients at a rate that trips hair-trigger breakers while
    #: still letting plenty of ops through (at rate 1.0 every breaker
    #: opens before a single transfer lands, which would vacuously
    #: pass the hop assertions below).
    FAULTS = FaultConfig(
        pe_transient_rate=0.3,
        backoff_base_ns=100.0,
        breaker_failure_threshold=2,
        breaker_cooldown_ns=5e6,
    )

    def test_tripped_pcie_breaker_does_not_route_on_package(self):
        """With TCP behind PCIe and its breakers tripped, every TCP op
        that still runs keeps paying the PCIe hop: the hop-crossing
        count keeps growing, and no accelerator of the kind appears
        on-package. Recovery degrades to the CPU instead of teleporting
        the accelerator."""
        requests, server = _run({"tcp": "pcie"}, self.FAULTS)
        recovery = server.orchestrator.recovery
        assert recovery.breaker_trips > 0
        assert all(r.completed for r in requests)
        # The physical contract: the fabric still owns every crossing.
        fabric = server.hardware.fabric
        assert fabric is not None
        assert fabric.hop_transfers[Placement.PCIE] > 0
        # Exhausted retries degrade to the CPU (the only legal escape).
        assert recovery.degraded_to_cpu > 0 or recovery.step_retries > 0

    def test_breaker_routing_stays_within_kind(self):
        """The pick() candidate set never crosses kinds: with every TCP
        instance tripped open, pick() returns None for TCP rather than
        an instance of another kind."""
        _, server = _run({"tcp": "pcie"}, self.FAULTS)
        recovery = server.orchestrator.recovery
        env_now = server.env.now
        from repro.hw.params import AcceleratorKind

        tcp_instances = server.hardware.instances[AcceleratorKind.TCP]
        for accel in tcp_instances:
            recovery.breaker(accel).opened_at = env_now  # force open
        picked = recovery.pick(tcp_instances, env_now)
        assert picked is None  # never an on-package substitute

