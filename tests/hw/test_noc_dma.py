"""Unit tests for the network and DMA models."""

import pytest

from repro.hw import (
    CPU_ENDPOINT,
    MEMORY_ENDPOINT,
    AcceleratorKind,
    DmaPool,
    MachineParams,
    Network,
)
from repro.sim import Environment


def make_network(chiplets=2):
    env = Environment()
    params = MachineParams().with_layout(chiplets)
    return env, Network(env, params)


class TestNetworkTopology:
    def test_cpu_and_memory_on_chiplet_zero(self):
        _, net = make_network()
        assert net.chiplet_of(CPU_ENDPOINT) == 0
        assert net.chiplet_of(MEMORY_ENDPOINT) == 0

    def test_crosses_chiplets(self):
        _, net = make_network(2)
        assert net.crosses_chiplets(CPU_ENDPOINT, AcceleratorKind.TCP)
        assert not net.crosses_chiplets(AcceleratorKind.TCP, AcceleratorKind.SER)
        assert not net.crosses_chiplets(CPU_ENDPOINT, AcceleratorKind.LDB)

    def test_single_chiplet_never_crosses(self):
        _, net = make_network(1)
        assert not net.crosses_chiplets(CPU_ENDPOINT, AcceleratorKind.TCP)


class TestNetworkTiming:
    def test_intra_chiplet_cheaper_than_inter(self):
        _, net = make_network(2)
        intra = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.SER, 1024)
        inter = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.LDB, 1024)
        assert inter > intra

    def test_estimate_grows_with_size(self):
        _, net = make_network(2)
        small = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.SER, 64)
        large = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.SER, 8192)
        assert large > small

    def test_transfer_process_matches_estimate_uncontended(self):
        env, net = make_network(2)

        def proc(env):
            yield env.process(
                net.transfer(AcceleratorKind.TCP, AcceleratorKind.LDB, 2048)
            )
            return env.now

        p = env.process(proc(env))
        env.run()
        estimate = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.LDB, 2048)
        assert p.value == pytest.approx(estimate, rel=0.01)

    def test_transfer_counts_stats(self):
        env, net = make_network(2)

        def proc(env):
            yield env.process(
                net.transfer(AcceleratorKind.TCP, AcceleratorKind.SER, 100)
            )
            yield env.process(net.transfer(AcceleratorKind.TCP, CPU_ENDPOINT, 100))

        env.process(proc(env))
        env.run()
        stats = net.stats()
        assert stats["intra_chiplet_transfers"] == 1
        assert stats["inter_chiplet_transfers"] == 1
        assert stats["bytes_moved"] == 200

    def test_higher_inter_chiplet_latency_slows_transfer(self):
        env1 = Environment()
        net1 = Network(env1, MachineParams().with_inter_chiplet_cycles(20.0))
        env2 = Environment()
        net2 = Network(env2, MachineParams().with_inter_chiplet_cycles(100.0))
        fast = net1.estimate_ns(AcceleratorKind.TCP, CPU_ENDPOINT, 1024)
        slow = net2.estimate_ns(AcceleratorKind.TCP, CPU_ENDPOINT, 1024)
        assert slow > fast

    def test_fabric_contention_serializes(self):
        env, net = make_network(2)
        parallelism = net.noc.mesh_parallelism
        finish_times = []

        def transfer(env):
            yield env.process(
                net.transfer(AcceleratorKind.TCP, AcceleratorKind.SER, 16)
            )
            finish_times.append(env.now)

        for _ in range(parallelism + 1):
            env.process(transfer(env))
        env.run()
        single = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.SER, 16)
        # The first `parallelism` finish together; the extra one waits.
        assert sorted(finish_times)[-1] == pytest.approx(2 * single, rel=0.01)


class TestDmaPool:
    def test_engines_must_be_positive(self):
        env, net = make_network()
        with pytest.raises(ValueError):
            DmaPool(env, net, engines=0)

    def test_transfer_moves_bytes(self):
        env, net = make_network()
        dma = DmaPool(env, net, engines=10)

        def proc(env):
            yield env.process(
                dma.transfer(AcceleratorKind.TCP, AcceleratorKind.SER, 512)
            )

        env.process(proc(env))
        env.run()
        assert dma.transfers == 1
        assert dma.bytes_moved == 512

    def test_pool_limits_concurrency(self):
        env, net = make_network()
        dma = DmaPool(env, net, engines=2)
        finish = []

        def proc(env):
            yield env.process(
                dma.transfer(AcceleratorKind.TCP, AcceleratorKind.SER, 16)
            )
            finish.append(env.now)

        for _ in range(4):
            env.process(proc(env))
        env.run()
        # Two waves: 2 engines for 4 transfers.
        assert len(set(round(t, 3) for t in finish)) == 2

    def test_utilization_between_zero_and_one(self):
        env, net = make_network()
        dma = DmaPool(env, net, engines=10)

        def proc(env):
            yield env.process(
                dma.transfer(AcceleratorKind.TCP, AcceleratorKind.SER, 2048)
            )
            yield env.timeout(1000.0)

        env.process(proc(env))
        env.run()
        assert 0.0 <= dma.utilization() <= 1.0


class TestHopMath:
    """Direct coverage of the estimate_ns arithmetic."""

    def test_pair_hops_defaults_to_avg(self):
        _, net = make_network(2)
        route = net.route(AcceleratorKind.TCP, AcceleratorKind.SER)
        assert route.src_mesh_ns == net.noc.mesh_latency_ns(
            net.noc.mesh_avg_hops, net.ghz
        )

    def test_intra_estimate_is_closed_form(self):
        _, net = make_network(2)
        noc = net.noc
        hops = noc.mesh_avg_hops
        expected = noc.mesh_latency_ns(hops, net.ghz) + noc.mesh_serialization_ns(
            4096, net.ghz
        )
        assert net.estimate_ns(
            AcceleratorKind.TCP, AcceleratorKind.SER, 4096
        ) == pytest.approx(expected)

    def test_inter_estimate_is_closed_form(self):
        _, net = make_network(2)
        noc = net.noc
        src, dst, nbytes = AcceleratorKind.TCP, AcceleratorKind.LDB, 4096
        src_chip, dst_chip = net.chiplet_of(src), net.chiplet_of(dst)
        assert src_chip != dst_chip
        expected = (
            noc.mesh_latency_ns(noc.mesh_avg_hops, net.ghz)
            + noc.mesh_serialization_ns(nbytes, net.ghz)
            + noc.inter_chiplet_latency_ns(net.ghz)
            + noc.inter_chiplet_serialization_ns(nbytes)
            + noc.mesh_latency_ns(noc.mesh_avg_hops, net.ghz)
        )
        assert net.estimate_ns(src, dst, nbytes) == pytest.approx(expected)

    def test_estimate_symmetric_between_endpoints(self):
        _, net = make_network(2)
        forward = net.estimate_ns(AcceleratorKind.TCP, AcceleratorKind.LDB, 1024)
        reverse = net.estimate_ns(AcceleratorKind.LDB, AcceleratorKind.TCP, 1024)
        assert forward == pytest.approx(reverse)
