"""The per-op rows that the accelerator path reads return, bit for bit,
what the formulas and helpers they replace compute.

An accelerator reads its staging constants once, at construction, and
stages each op inline; the output dispatcher accounts and times an op
in one ``record_dispatch`` call; and a TLB draws ``random() < p`` with
its probabilities checked once. The references below are the
``AcceleratorParams`` formulas, ``record`` plus ``dispatch_time_ns``,
and ``Stream.bernoulli``. Reassociating the staging sum, dropping a
counter, or reordering a draw fails here.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GlueCostModel, TraceRegistry
from repro.hw import AcceleratorKind, MachineParams
from repro.hw.accelerator import Accelerator
from repro.hw.ops import AccelOp, QueueEntry
from repro.hw.params import GHZ, AcceleratorParams, TlbParams
from repro.hw.tlb import Iommu, TlbModel
from repro.sim import Environment, RandomStreams

KIB_64 = 64 * 1024

#: Inline-data boundaries of the default 2 KiB entry, and the extremes.
SIZES = (1, 2047, 2048, 2049, KIB_64)

#: Every staging constant, drawn away from its default.
ACCEL_PARAMS = st.builds(
    AcceleratorParams,
    inline_data_bytes=st.integers(1, KIB_64),
    queue_to_scratchpad_latency_ns=st.floats(0.0, 100.0),
    queue_to_scratchpad_gbps=st.floats(0.1, 1000.0),
    memory_fetch_latency_ns=st.floats(0.0, 100.0),
    memory_fetch_gbps=st.floats(0.1, 1000.0),
)


def _staging_delays(accel_params, data_in, data_out):
    """The timeouts one op's PE runs, on an accelerator whose TLB
    always hits: staging in, service, staging out."""
    env = Environment()
    params = replace(MachineParams(), accelerator=accel_params)
    tlb = TlbModel(
        env,
        TlbParams(miss_probability=0.0, page_fault_probability=0.0),
        Iommu(env, 100.0),
        RandomStreams(0).stream("tlb"),
    )
    accel = Accelerator(env, AcceleratorKind.SER, params, tlb)
    delays = []
    timeout = env.timeout

    def recorded(delay, value=None):
        delays.append(delay)
        return timeout(delay, value)

    env.timeout = recorded
    op = AccelOp(AcceleratorKind.SER, 380.0, data_in, data_out)
    assert accel.try_enqueue(QueueEntry(env, op))
    env.run()
    assert accel.ops_completed == 1
    return delays, op.cpu_time_ns / accel.speedup


def _check_staging(accel_params, data_in, data_out) -> None:
    delays, service_ns = _staging_delays(accel_params, data_in, data_out)
    assert delays == [
        accel_params.scratchpad_transfer_ns(data_in)
        + accel_params.memory_fetch_ns(data_in),
        service_ns,
        accel_params.scratchpad_transfer_ns(data_out),
    ], (accel_params, data_in, data_out)


class TestPeStagingMatchesTheFormulas:
    def test_default_params_at_boundary_sizes(self):
        for data_in in SIZES:
            for data_out in SIZES:
                _check_staging(AcceleratorParams(), data_in, data_out)

    @settings(max_examples=200, deadline=None)
    @given(
        accel_params=st.one_of(st.just(AcceleratorParams()), ACCEL_PARAMS),
        data_in=st.integers(1, KIB_64),
        data_out=st.integers(1, KIB_64),
    )
    def test_any_size_and_params(self, accel_params, data_in, data_out):
        _check_staging(accel_params, data_in, data_out)


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


STEPS = _standard_steps()


class TestRecordDispatchMatchesRecordAndDispatchTime:
    @settings(max_examples=50, deadline=None)
    @given(
        ghz=st.sampled_from((GHZ, 2.0, 3.1)),
        payload=st.integers(1, KIB_64),
    )
    def test_every_step_of_every_standard_trace(self, ghz, payload):
        # The traces exercise every counter.
        assert any(step.branches_after for step in STEPS)
        assert any(step.transforms_after for step in STEPS)
        assert any(step.atm_read_after for step in STEPS)
        assert any(step.notify_after for step in STEPS)
        combined, reference = GlueCostModel(ghz), GlueCostModel(ghz)
        # The first pass fills the tables, the second reads them; the
        # RELIEF ladder's direct rungs dispatch with no payload.
        for _ in range(2):
            for step in STEPS:
                for nbytes in (0, payload):
                    time_ns = reference.dispatch_time_ns(step, nbytes)
                    reference.record(step)
                    assert combined.record_dispatch(step, nbytes) == time_ns
                    assert combined.stats() == reference.stats()


def _tlb_outcomes(seed, miss_p, fault_p, ops):
    env = Environment()
    params = TlbParams(miss_probability=miss_p, page_fault_probability=fault_p)
    tlb = TlbModel(
        env, params, Iommu(env, params.walk_latency_ns),
        RandomStreams(seed).stream("tlb"),
    )
    outcomes = []

    def translate_all():
        for _ in range(ops):
            outcome = yield env.process(tlb.translate())
            outcomes.append(
                "fault" if outcome.page_fault else "hit" if outcome.hit else "miss"
            )

    env.process(translate_all())
    env.run()
    assert (tlb.accesses, tlb.misses, tlb.page_faults) == (
        ops, outcomes.count("miss"), outcomes.count("fault")
    )
    return outcomes


def _bernoulli_outcomes(seed, miss_p, fault_p, ops):
    stream = RandomStreams(seed).stream("tlb")
    outcomes = []
    for _ in range(ops):
        if stream.bernoulli(fault_p):
            outcomes.append("fault")
        elif stream.bernoulli(miss_p):
            outcomes.append("miss")
        else:
            outcomes.append("hit")
    return outcomes


class TestTlbDrawsMatchBernoulli:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        miss_p=st.one_of(st.sampled_from((0.0, 0.02, 1.0)), st.floats(0.0, 1.0)),
        fault_p=st.one_of(st.sampled_from((0.0, 2e-6, 1.0)), st.floats(0.0, 1.0)),
        ops=st.integers(1, 60),
    )
    def test_outcome_sequence(self, seed, miss_p, fault_p, ops):
        assert _tlb_outcomes(seed, miss_p, fault_p, ops) == _bernoulli_outcomes(
            seed, miss_p, fault_p, ops
        )

    @pytest.mark.parametrize("field", ["miss_probability", "page_fault_probability"])
    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_out_of_range_probability_is_rejected_at_construction(self, field, p):
        env = Environment()
        with pytest.raises(ValueError, match="probability"):
            TlbModel(
                env, TlbParams(**{field: p}), Iommu(env, 100.0),
                RandomStreams(0).stream("tlb"),
            )
