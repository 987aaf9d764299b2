"""Unit tests for the accelerator model (queues, dispatcher, PEs)."""

import gc

import pytest

from repro.hw import (
    AccelOp,
    Accelerator,
    AcceleratorKind,
    Iommu,
    MachineParams,
    QueueEntry,
    QueuePolicy,
    TlbModel,
)
from repro.hw.params import AcceleratorParams, TlbParams
from repro.server import SimulatedServer
from repro.sim import Environment, RandomStreams
from repro.workloads import social_network_services


def make_accel(
    env,
    kind=AcceleratorKind.SER,
    policy=QueuePolicy.FIFO,
    pes=8,
    input_entries=64,
    overflow_entries=256,
    miss_p=0.0,
):
    params = MachineParams(
        accelerator=AcceleratorParams(
            pes=pes,
            input_queue_entries=input_entries,
            overflow_entries=overflow_entries,
        ),
        tlb=TlbParams(miss_probability=miss_p, page_fault_probability=0.0),
    )
    iommu = Iommu(env, params.tlb.walk_latency_ns)
    tlb = TlbModel(env, params.tlb, iommu, RandomStreams(0).stream("t"))
    return Accelerator(env, kind, params, tlb, policy=policy)


def make_entry(env, cpu_ns=1000.0, data_in=512, data_out=512, tenant=0, **kwargs):
    op = AccelOp(AcceleratorKind.SER, cpu_ns, data_in, data_out)
    return QueueEntry(env, op, tenant=tenant, **kwargs)


def run_entries(env, accel, entries):
    def proc(env):
        for entry in entries:
            assert accel.try_enqueue(entry)
        for entry in entries:
            yield entry.done

    env.process(proc(env))
    env.run()


class TestAccelOp:
    def test_accel_time_divides_by_speedup(self):
        op = AccelOp(AcceleratorKind.SER, 3800.0, 100, 100)
        assert op.accel_time_ns(3.8) == pytest.approx(1000.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AccelOp(AcceleratorKind.SER, -1.0, 0, 0)
        with pytest.raises(ValueError):
            AccelOp(AcceleratorKind.SER, 1.0, -5, 0)
        op = AccelOp(AcceleratorKind.SER, 1.0, 0, 0)
        with pytest.raises(ValueError):
            op.accel_time_ns(0.0)


class TestQueueEntry:
    def test_slack_infinite_without_deadline(self):
        env = Environment()
        entry = make_entry(env)
        assert entry.slack_ns(100.0) == float("inf")

    def test_slack_with_deadline(self):
        env = Environment()
        entry = make_entry(env, deadline_ns=500.0)
        assert entry.slack_ns(100.0) == 400.0

    def test_wait_properties_guarded(self):
        env = Environment()
        entry = make_entry(env)
        with pytest.raises(ValueError):
            _ = entry.queue_wait_ns
        with pytest.raises(ValueError):
            _ = entry.service_ns

    def test_retired_entries_leave_no_cyclic_garbage(self):
        """consume_output drops each entry's completion event, so the
        entry -> done -> value -> entry cycle never forms: a fault-free
        AccelFlow run leaves no QueueEntry for the cyclic collector."""
        spec = next(s for s in social_network_services() if s.name == "CPost")
        gc.collect()
        gc.disable()
        flags = gc.get_debug()
        try:
            server = SimulatedServer("accelflow", seed=0)
            env = server.env
            done = [server.submit(server.make_request(spec)) for _ in range(8)]
            env.run(until=env.all_of(done))
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, QueueEntry)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()
        instances = server.hardware.instances.values()
        assert sum(a.ops_completed for accels in instances for a in accels) > 0
        assert leaked == []


class TestAcceleratorExecution:
    def test_single_op_completes_with_speedup(self):
        env = Environment()
        accel = make_accel(env)  # Ser: speedup 3.8
        entry = make_entry(env, cpu_ns=3800.0)
        run_entries(env, accel, [entry])
        assert accel.ops_completed == 1
        # Total time = scratchpad in + compute (1000) + scratchpad out.
        assert entry.service_ns > 1000.0
        assert entry.service_ns < 1100.0

    def test_eight_pes_run_in_parallel(self):
        env = Environment()
        accel = make_accel(env, pes=8)
        entries = [make_entry(env, cpu_ns=3800.0) for _ in range(8)]
        run_entries(env, accel, entries)
        # All eight fit on PEs simultaneously: makespan ~ one op.
        assert env.now < 1200.0

    def test_ninth_op_waits_for_free_pe(self):
        env = Environment()
        accel = make_accel(env, pes=8)
        entries = [make_entry(env, cpu_ns=3800.0) for _ in range(9)]
        run_entries(env, accel, entries)
        assert env.now > 2000.0

    def test_pe_count_limits_throughput(self):
        def makespan(pes):
            env = Environment()
            accel = make_accel(env, pes=pes)
            entries = [make_entry(env, cpu_ns=3800.0) for _ in range(16)]
            run_entries(env, accel, entries)
            return env.now

        assert makespan(2) > makespan(4) > makespan(8)

    def test_done_event_carries_entry(self):
        env = Environment()
        accel = make_accel(env)
        entry = make_entry(env)
        results = []

        def proc(env):
            accel.try_enqueue(entry)
            value = yield entry.done
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == [entry]

    def test_larger_payload_takes_longer(self):
        def service(data_in):
            env = Environment()
            accel = make_accel(env)
            entry = make_entry(env, cpu_ns=1000.0, data_in=data_in)
            run_entries(env, accel, [entry])
            return entry.service_ns

        assert service(8192) > service(512)

    def test_tlb_misses_slow_execution(self):
        def service(miss_p):
            env = Environment()
            accel = make_accel(env, miss_p=miss_p)
            entry = make_entry(env, cpu_ns=1000.0)
            run_entries(env, accel, [entry])
            return entry.service_ns, accel.tlb.misses

        hit_service, hit_misses = service(0.0)
        miss_service, miss_misses = service(1.0)
        assert hit_misses == 0 and miss_misses == 1
        # The page walk adds its 100 ns latency to the operation.
        assert miss_service == pytest.approx(hit_service + 100.0)


class TestTenantIsolation:
    def test_wipe_between_tenants(self):
        env = Environment()
        accel = make_accel(env, pes=1)
        a = make_entry(env, tenant=1)
        b = make_entry(env, tenant=2)
        run_entries(env, accel, [a, b])
        assert accel.tenant_wipes == 1

    def test_no_wipe_same_tenant(self):
        env = Environment()
        accel = make_accel(env, pes=1)
        entries = [make_entry(env, tenant=7) for _ in range(3)]
        run_entries(env, accel, entries)
        assert accel.tenant_wipes == 0


class TestAdmissionAndOverflow:
    def test_overflow_used_when_queue_full(self):
        env = Environment()
        accel = make_accel(env, pes=1, input_entries=2, overflow_entries=4)
        entries = [make_entry(env, cpu_ns=38000.0) for _ in range(5)]
        for entry in entries:
            assert accel.try_enqueue(entry)
        assert accel.overflow_admissions >= 1

        def waiter(env):
            for entry in entries:
                yield entry.done

        env.process(waiter(env))
        env.run()
        assert accel.ops_completed == 5

    def test_rejection_when_everything_full(self):
        env = Environment()
        accel = make_accel(env, pes=1, input_entries=1, overflow_entries=1)
        ok = [accel.try_enqueue(make_entry(env, cpu_ns=38000.0)) for _ in range(5)]
        # Queue (1) + in-dispatch + overflow (1) fill quickly; later
        # enqueues are rejected and counted as CPU fallbacks.
        assert not all(ok)
        assert accel.ops_rejected >= 1

    def test_overflow_entries_eventually_complete_in_order(self):
        env = Environment()
        accel = make_accel(env, pes=1, input_entries=1, overflow_entries=8)
        entries = [make_entry(env, cpu_ns=3800.0) for _ in range(6)]
        run_entries(env, accel, entries)
        completion_times = [entry.complete_time for entry in entries]
        assert completion_times == sorted(completion_times)


class TestQueuePolicies:
    def test_unknown_policy_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_accel(env, policy="lifo")

    def test_edf_orders_by_deadline(self):
        env = Environment()
        accel = make_accel(env, pes=1, policy=QueuePolicy.EDF)
        blocker = make_entry(env, cpu_ns=38000.0)
        late = make_entry(env, cpu_ns=380.0, deadline_ns=1e9)
        urgent = make_entry(env, cpu_ns=380.0, deadline_ns=100.0)
        run_entries(env, accel, [blocker, late, urgent])
        assert urgent.complete_time < late.complete_time

    def test_priority_policy_orders_by_priority(self):
        env = Environment()
        accel = make_accel(env, pes=1, policy=QueuePolicy.PRIORITY)
        blocker = make_entry(env, cpu_ns=38000.0, priority=0)
        low = make_entry(env, cpu_ns=380.0, priority=9)
        high = make_entry(env, cpu_ns=380.0, priority=1)
        run_entries(env, accel, [blocker, low, high])
        assert high.complete_time < low.complete_time

    def test_edf_counts_deadline_violations(self):
        env = Environment()
        accel = make_accel(env, pes=1, policy=QueuePolicy.EDF)
        blocker = make_entry(env, cpu_ns=380000.0)
        doomed = make_entry(env, cpu_ns=380.0, deadline_ns=10.0)
        run_entries(env, accel, [blocker, doomed])
        assert accel.deadline_violations == 1


class TestStatistics:
    def test_utilization_bounded(self):
        env = Environment()
        accel = make_accel(env)
        entries = [make_entry(env) for _ in range(20)]
        run_entries(env, accel, entries)
        assert 0.0 < accel.utilization() <= 1.0

    def test_stats_keys(self):
        env = Environment()
        accel = make_accel(env)
        run_entries(env, accel, [make_entry(env)])
        stats = accel.stats()
        for key in (
            "ops_completed",
            "ops_rejected",
            "overflow_admissions",
            "tenant_wipes",
            "utilization",
            "mean_queue_wait_ns",
        ):
            assert key in stats
        assert stats["ops_completed"] == 1

    def test_mean_queue_wait_is_the_mean_of_the_ops_waits(self):
        # One PE and six back-to-back ops: each waits for the ones
        # ahead of it, so the waits differ and the mean is not zero.
        env = Environment()
        accel = make_accel(env, pes=1)
        assert accel.mean_queue_wait_ns() == 0.0  # nothing dispatched yet
        entries = [make_entry(env, cpu_ns=1000.0 * (i + 1)) for i in range(6)]
        run_entries(env, accel, entries)
        waits = [entry.queue_wait_ns for entry in entries]
        assert len(set(waits)) == len(waits)
        # FIFO: the ops dispatch in list order, so adding the waits in
        # that order reproduces the running total bit for bit.
        total = 0.0
        for wait in waits:
            total += wait
        assert total > 0.0
        assert accel.mean_queue_wait_ns() == total / len(waits)
        assert accel.stats()["mean_queue_wait_ns"] == total / len(waits)
