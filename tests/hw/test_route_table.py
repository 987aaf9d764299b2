"""Per-server tables return, bit for bit, what the formulas they replace
compute.

``Network`` resolves each endpoint pair once into a route, and
``GlueCostModel`` keeps one row per shared resolved step. The helpers
below write the per-call formulas out as they stood before those
tables: every hop count, leg and sum in its old order. Reassociating
any sum, or caching a size-dependent term, fails here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GlueCostModel, TraceRegistry
from repro.hw import (
    CPU_ENDPOINT,
    MEMORY_ENDPOINT,
    AcceleratorKind,
    MachineParams,
    Network,
)
from repro.hw.params import GHZ, cycles_to_ns
from repro.sim import Environment

ENDPOINTS = list(AcceleratorKind) + [CPU_ENDPOINT, MEMORY_ENDPOINT]
#: Every chiplet layout of Section VII.C.1.
LAYOUTS = (1, 2, 3, 4, 6)
#: Flit and inline-data boundaries, and the 1 B .. 64 KiB extremes.
SIZES = (1, 15, 16, 17, 2048, 2049, 65536)


def _params(chiplets: int) -> MachineParams:
    return MachineParams().with_layout(chiplets)


def _chiplet(params, endpoint) -> int:
    if endpoint in (CPU_ENDPOINT, MEMORY_ENDPOINT):
        return 0
    return params.layout.chiplet_of(endpoint)


def _hops(params) -> float:
    """Mesh hops of one leg: the flat model uses the average."""
    return params.noc.mesh_avg_hops


def _legs(params, src, dst, nbytes):
    """The timeout of each leg of an uncontended transfer."""
    noc, ghz = params.noc, params.cpu.ghz
    src_chip, dst_chip = _chiplet(params, src), _chiplet(params, dst)
    if src_chip == dst_chip:
        return [
            noc.mesh_latency_ns(_hops(params), ghz)
            + noc.mesh_serialization_ns(nbytes, ghz)
        ]
    return [
        noc.mesh_latency_ns(_hops(params), ghz)
        + noc.mesh_serialization_ns(nbytes, ghz),
        noc.inter_chiplet_latency_ns(ghz)
        + noc.inter_chiplet_serialization_ns(nbytes),
        noc.mesh_latency_ns(_hops(params), ghz),
    ]


def _estimate(params, src, dst, nbytes) -> float:
    """The uncontended estimate, summed in its own (different) order."""
    noc, ghz = params.noc, params.cpu.ghz
    src_chip, dst_chip = _chiplet(params, src), _chiplet(params, dst)
    if src_chip == dst_chip:
        return noc.mesh_latency_ns(
            _hops(params), ghz
        ) + noc.mesh_serialization_ns(nbytes, ghz)
    time_ns = noc.mesh_latency_ns(_hops(params), ghz)
    time_ns += noc.mesh_serialization_ns(nbytes, ghz)
    time_ns += noc.inter_chiplet_latency_ns(ghz)
    time_ns += noc.inter_chiplet_serialization_ns(nbytes)
    time_ns += noc.mesh_latency_ns(_hops(params), ghz)
    return time_ns


def _check_pair(params, src, dst, nbytes) -> None:
    env = Environment()
    network = Network(env, params)
    env.process(network.transfer(src, dst, nbytes))
    env.run()
    finish = 0.0
    for leg in _legs(params, src, dst, nbytes):
        finish += leg  # each timeout is due at now + delay
    assert env.now == finish, (src, dst, nbytes)
    assert network.estimate_ns(src, dst, nbytes) == _estimate(
        params, src, dst, nbytes
    ), (src, dst, nbytes)
    crossed = len(_legs(params, src, dst, nbytes)) == 3
    assert network.inter_chiplet_transfers == crossed
    assert network.intra_chiplet_transfers == (not crossed)
    assert network.route(src, dst) is network.route(src, dst)


class TestRoutesMatchTheFormulas:
    def test_every_pair_layout_and_mesh_at_boundary_sizes(self):
        for chiplets in LAYOUTS:
            params = _params(chiplets)
            for src in ENDPOINTS:
                for dst in ENDPOINTS:
                    for nbytes in SIZES:
                        _check_pair(params, src, dst, nbytes)

    @settings(max_examples=300, deadline=None)
    @given(
        chiplets=st.sampled_from(LAYOUTS),
        src=st.sampled_from(ENDPOINTS),
        dst=st.sampled_from(ENDPOINTS),
        nbytes=st.integers(1, 65536),
    )
    def test_any_size(self, chiplets, src, dst, nbytes):
        _check_pair(_params(chiplets), src, dst, nbytes)

    def test_routes_are_per_network_and_bounded_by_pairs(self):
        env = Environment()
        network = Network(env, _params(6))
        for nbytes in SIZES:
            for src in ENDPOINTS:
                for dst in ENDPOINTS:
                    network.estimate_ns(src, dst, nbytes)
        assert sum(len(row) for row in network._routes.values()) == len(
            ENDPOINTS
        ) ** 2
        other = Network(env, _params(6))
        assert other.route(CPU_ENDPOINT, AcceleratorKind.TCP) is not network.route(
            CPU_ENDPOINT, AcceleratorKind.TCP
        )


def _standard_steps():
    """Every resolved step of every standard trace, fanout arms too."""
    steps = {}
    for trace in TraceRegistry.with_standard_templates().traces():
        pending = [path for _, path in trace.all_paths()]
        while pending:
            path = pending.pop()
            for step in path.steps:
                steps[id(step)] = step
                pending.extend(step.fanout)
    return list(steps.values())


def _instructions(step) -> int:
    instructions = GlueCostModel.BASE_INSTRUCTIONS
    instructions += GlueCostModel.BRANCH_INSTRUCTIONS * step.branches_after
    instructions += GlueCostModel.TRANSFORM_INSTRUCTIONS * step.transforms_after
    if step.atm_read_after:
        instructions += GlueCostModel.END_ATM_INSTRUCTIONS
    if step.notify_after:
        instructions += GlueCostModel.END_NOTIFY_INSTRUCTIONS
    return instructions


def _dispatch_time_ns(step, payload_bytes, ghz) -> float:
    time_ns = cycles_to_ns(float(_instructions(step)), ghz)
    if step.transforms_after:
        time_ns += (
            step.transforms_after * payload_bytes / GlueCostModel.DTE_BYTES_PER_NS
        )
    return time_ns


class TestGlueTableMatchesTheFormula:
    def test_every_step_of_every_standard_trace(self):
        steps = _standard_steps()
        # The traces exercise every term of the formula.
        assert any(step.branches_after for step in steps)
        assert any(step.transforms_after for step in steps)
        assert any(step.atm_read_after for step in steps)
        assert any(step.notify_after for step in steps)
        for ghz in (GHZ, 2.0, 3.1):
            model = GlueCostModel(ghz)
            # The first pass fills the table, the second reads it.
            for _ in range(2):
                for step in steps:
                    for payload in (0, 1, 2048, 2049, 65536):
                        assert model.dispatch_time_ns(
                            step, payload
                        ) == _dispatch_time_ns(step, payload, ghz)
                    assert model.record(step) == _instructions(step)
            assert len(model._per_step) == len(steps)
