"""Failure injection: the system degrades gracefully, never hangs.

Each test cranks one failure mode to an extreme — network loss, page
faults, payload exceptions, starved hardware, tenant throttling — and
checks that every request still terminates with a sane status and the
bookkeeping stays consistent.
"""


from repro.hw import MachineParams
from repro.hw.params import AcceleratorParams, TlbParams
from repro.server import SimulatedServer
from repro.workloads import (
    BranchProbabilities,
    Buckets,
    RemoteLatencies,
    social_network_services,
)

SERVICES = {s.name: s for s in social_network_services()}


def run_all(server, spec, count):
    requests = [server.make_request(spec) for _ in range(count)]
    procs = [server.submit(r) for r in requests]
    server.env.run(until=server.env.all_of(procs))
    assert all(r.completed for r in requests), "a request never terminated"
    return requests


class TestNetworkLoss:
    def test_total_loss_times_out_every_remote_request(self):
        server = SimulatedServer(
            "accelflow", remotes=RemoteLatencies(loss_probability=1.0)
        )
        requests = run_all(server, SERVICES["StoreP"], 5)
        assert all(r.timed_out and r.error for r in requests)
        assert server.orchestrator.tcp_timeouts == 5

    def test_timeout_duration_respected(self):
        from repro.workloads import OrchestrationCosts

        server = SimulatedServer(
            "accelflow",
            remotes=RemoteLatencies(loss_probability=1.0),
            orch_costs=OrchestrationCosts(tcp_response_timeout_ns=1e6),
        )
        (request,) = run_all(server, SERVICES["StoreP"], 1)
        assert request.latency_ns >= 1e6

    def test_services_without_remotes_unaffected(self):
        server = SimulatedServer(
            "accelflow", remotes=RemoteLatencies(loss_probability=1.0)
        )
        requests = run_all(server, SERVICES["UniqId"], 5)
        assert not any(r.timed_out for r in requests)


class TestPageFaultStorm:
    def test_every_op_faulting_still_completes(self):
        params = MachineParams(
            tlb=TlbParams(page_fault_probability=1.0, miss_probability=0.0)
        )
        server = SimulatedServer("accelflow", machine_params=params)
        requests = run_all(server, SERVICES["UniqId"], 3)
        faults = server.hardware.tlb_stats()["page_faults"]
        assert faults >= 3 * 9  # every op faults
        # Each fault pays the OS service latency.
        baseline = SimulatedServer("accelflow")
        base_requests = run_all(baseline, SERVICES["UniqId"], 3)
        assert (
            sum(r.latency_ns for r in requests)
            > sum(r.latency_ns for r in base_requests)
        )


class TestPayloadExceptions:
    def test_all_exceptions_reported_not_hung(self):
        import dataclasses

        # Strip the forced exception=False pin so sampling applies.
        spec = SERVICES["StoreP"]
        from repro.workloads import TraceInvocation

        path = tuple(
            dataclasses.replace(step, forced={"compressed": True})
            if isinstance(step, TraceInvocation) and step.entry == "T8c"
            else step
            for step in spec.path
        )
        spec = dataclasses.replace(spec, path=path)
        server = SimulatedServer(
            "accelflow", branch_probs=BranchProbabilities(exception=1.0)
        )
        requests = run_all(server, spec, 5)
        assert all(r.error for r in requests)


class TestStarvedHardware:
    def test_one_pe_one_slot_everything_falls_back(self):
        params = MachineParams(
            accelerator=AcceleratorParams(
                pes=1, input_queue_entries=1, overflow_entries=1
            )
        )
        server = SimulatedServer("accelflow", machine_params=params)
        requests = run_all(server, SERVICES["Follow"], 6)
        # Heavy fallback, yet conservation holds: every request is done
        # and CPU time absorbed the spilled work.
        assert server.orchestrator.fallbacks > 0
        for request in requests:
            if request.fell_back:
                assert request.components[Buckets.CPU] > request.spec.app_logic_ns

    def test_zero_capacity_never_deadlocks_under_burst(self):
        params = MachineParams(
            accelerator=AcceleratorParams(
                pes=1, input_queue_entries=1, overflow_entries=1
            )
        )
        server = SimulatedServer("relief", machine_params=params)
        run_all(server, SERVICES["CPost"], 4)  # parallel fan-out + tiny queues


class TestTenantThrottling:
    def test_limit_one_serializes_but_completes(self):
        params = MachineParams(tenant_trace_limit=1)
        server = SimulatedServer("accelflow", machine_params=params)
        requests = run_all(server, SERVICES["CPost"], 3)
        assert server.orchestrator.tenants.throttled > 0
        assert server.orchestrator.tenants.active_tenants == 0

    def test_queue_bucket_accounts_throttle_waits(self):
        params = MachineParams(tenant_trace_limit=1)
        server = SimulatedServer("accelflow", machine_params=params)
        requests = run_all(server, SERVICES["CPost"], 3)
        assert any(r.components[Buckets.QUEUE] > 0 for r in requests)


class TestCombinedChaos:
    def test_everything_at_once(self):
        """Loss + faults + starved queues + tenant limits simultaneously."""
        params = MachineParams(
            accelerator=AcceleratorParams(
                pes=1, input_queue_entries=2, overflow_entries=2
            ),
            tlb=TlbParams(page_fault_probability=0.2, miss_probability=0.5),
            tenant_trace_limit=2,
        )
        server = SimulatedServer(
            "accelflow",
            machine_params=params,
            remotes=RemoteLatencies(loss_probability=0.3),
            branch_probs=BranchProbabilities(exception=0.3),
        )
        requests = run_all(server, SERVICES["Login"], 8)
        statuses = {(r.error, r.timed_out, r.fell_back) for r in requests}
        assert statuses  # every request terminated with *some* status


class TestMachineFailure:
    """Fleet-level failures: a server dying mid-run with work in flight."""

    def _run_with_failure(self, at_ns=1.5e6, machines=3, fail_index=0):
        from repro.cluster import ClusterConfig, MachineFailure, run_cluster

        config = ClusterConfig(
            policy="least-outstanding",
            machines=machines,
            requests_per_service=100,
            rate_rps=30000.0,
            seed=0,
            failures=(MachineFailure(at_ns=at_ns, machine=fail_index),),
        )
        services = [SERVICES["StoreP"], SERVICES["Login"]]
        return run_cluster(services, config)

    def test_every_request_terminates_with_sane_status(self):
        result = self._run_with_failure()
        assert result.machines_failed == 1
        assert result.total_censored() == 0, "a request never terminated"
        assert result.completed + result.lost == result.arrivals
        # The failure struck while work was in flight, and the
        # survivors absorbed the rerouted requests.
        assert result.rerouted > 0
        assert result.completed > 0

    def test_dead_machine_receives_no_further_work(self):
        result = self._run_with_failure()
        dead = [m for m in result.machine_stats if m["state"] == "dead"]
        assert len(dead) == 1
        (machine,) = dead
        # dispatched was frozen at death: no post-mortem routing.
        assert machine["dispatched"] == result.cluster.machine(
            machine["index"]
        ).dispatched_at_death
        assert machine["died_at_ns"] == 1.5e6
        assert machine["killed_inflight"] > 0
        assert machine["outstanding"] == 0

    def test_rerouted_latency_includes_failover_penalty(self):
        from repro.cluster import ClusterConfig, MachineFailure, run_cluster

        failed = self._run_with_failure()
        clean = run_cluster(
            [SERVICES["StoreP"], SERVICES["Login"]],
            ClusterConfig(
                policy="least-outstanding",
                machines=3,
                requests_per_service=100,
                rate_rps=30000.0,
                seed=0,
            ),
        )
        # Same seed, same arrivals; the failed run redid work, so its
        # total completed+lost matches but the mean latency cannot be
        # lower than the clean run's by more than noise -- in practice
        # it is strictly higher because reroutes restart from scratch
        # while keeping the original arrival timestamp.
        assert failed.arrivals == clean.arrivals
        assert failed.mean_ns() > 0

    def test_whole_fleet_dead_loses_inflight_work(self):
        from repro.cluster import ClusterConfig, MachineFailure, run_cluster

        config = ClusterConfig(
            machines=2,
            requests_per_service=50,
            rate_rps=30000.0,
            seed=0,
            failures=(
                MachineFailure(at_ns=1.0e6, machine=0),
                MachineFailure(at_ns=1.0e6, machine=1),
            ),
        )
        result = run_cluster([SERVICES["StoreP"]], config)
        assert result.machines_failed == 2
        assert result.lost > 0
        assert result.total_censored() == 0
        # Lost requests terminate with an explicit error status.
        assert result.completed + result.lost == result.arrivals


class TestFaultPlaneProperties:
    """Hypothesis: random fault mixes never break the bookkeeping.

    Whatever the fault plane throws at the system, every request must
    terminate with a consistent status, and the recovery counters must
    reconcile with the per-request bookkeeping.
    """

    from hypothesis import given, settings, strategies as st

    rates = st.floats(min_value=0.0, max_value=0.4)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        architecture=st.sampled_from(["accelflow", "relief", "cohort"]),
        service=st.sampled_from(["UniqId", "StoreP"]),
        transient=rates,
        wedge=rates,
        dma_stall=rates,
        dma_corrupt=rates,
        flap=st.booleans(),
        mgr=st.booleans(),
    )
    def test_random_fault_mix_terminates_consistently(
        self,
        seed,
        architecture,
        service,
        transient,
        wedge,
        dma_stall,
        dma_corrupt,
        flap,
        mgr,
    ):
        from repro.faults import FaultConfig

        faults = FaultConfig(
            pe_transient_rate=transient,
            pe_wedge_rate=wedge,
            pe_wedge_ns=5e5,
            dma_stall_rate=dma_stall,
            dma_corruption_rate=dma_corrupt,
            noc_flap_interval_ns=1e5 if flap else 0.0,
            manager_outage_interval_ns=2e5 if mgr else 0.0,
            manager_outage_ns=3e5,
            watchdog_timeout_ns=2e5,
            backoff_base_ns=100.0,
        )
        server = SimulatedServer(architecture, faults=faults, seed=seed)
        requests = run_all(server, SERVICES[service], 4)

        plane = server.fault_plane
        recovery = server.orchestrator.recovery
        if not faults.enabled:
            assert plane is None and recovery is None
            assert not any(r.error or r.fell_back for r in requests)
            return

        # Injection accounting is internally consistent.
        stats = plane.stats()
        assert all(v >= 0.0 for v in stats.values())
        assert stats["total_injected"] == float(plane.total_injected())
        if architecture not in ("relief",):
            assert plane.injected["manager-outage"] == 0

        # Recovery accounting reconciles with per-request bookkeeping.
        rstats = recovery.stats()
        assert all(v >= 0.0 for v in rstats.values())
        assert sum(r.step_retries for r in requests) == recovery.step_retries
        for request in requests:
            if request.timed_out:
                assert request.error
            assert request.complete_ns is not None
            assert request.latency_ns >= 0.0
            assert all(v >= 0.0 for v in request.components.values())
