"""Tests for the cost model, payload model and arrival generators."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TraceRegistry
from repro.hw import AcceleratorKind
from repro.hw.params import PROCESSOR_GENERATIONS
from repro.sim import RandomStreams
from repro.workloads import (
    CATEGORY_OF_KIND,
    SIZE_FACTORS,
    BranchProbabilities,
    CostModel,
    CpuSegment,
    MmppArrivals,
    PayloadModel,
    PoissonArrivals,
    TaxCategory,
    count_ops_by_category,
    expand_chain,
    hotel_reservation_services,
    media_services,
    relief_suite_registry,
    relief_suite_services,
    serverless_functions,
    social_network_services,
    train_ticket_services,
)

K = AcceleratorKind
REGISTRY = TraceRegistry.with_standard_templates()
SERVICES = {s.name: s for s in social_network_services()}


class TestCostModel:
    def make(self, generation=None):
        return CostModel(REGISTRY, generation=generation)

    def test_category_budget_is_respected(self):
        """Per-op time x op count == the service's category time."""
        model = self.make()
        spec = SERVICES["UniqId"]
        counts = count_ops_by_category(REGISTRY, spec)
        for kind, category in [
            (K.TCP, TaxCategory.TCP),
            (K.SER, TaxCategory.SERIALIZATION),
        ]:
            per_op = model.base_op_time_ns(spec, kind)
            total = per_op * counts[category]
            assert total == pytest.approx(spec.category_time_ns(category))

    def test_ops_are_fine_grained(self):
        """The paper: operations take tens of microseconds at most."""
        model = self.make()
        for spec in SERVICES.values():
            for kind in K:
                base = model.base_op_time_ns(spec, kind)
                assert base < 200_000.0  # well under 200 us

    def test_size_scaling_clamped(self):
        model = self.make()
        spec = SERVICES["UniqId"]
        assert model.size_scale(spec, 1) == CostModel.MIN_SIZE_SCALE
        assert model.size_scale(spec, 10_000_000) == CostModel.MAX_SIZE_SCALE
        assert model.size_scale(spec, int(spec.wire_median_bytes)) == pytest.approx(
            1.0, abs=0.01
        )

    def test_op_for_builds_sized_op(self):
        model = self.make()
        spec = SERVICES["ReadH"]
        op = model.op_for(spec, K.CMP, 2048)
        assert op.kind == K.CMP
        assert op.data_in > op.data_out  # compression shrinks

    def test_cpu_segments_sum_to_app_logic(self):
        model = self.make()
        spec = SERVICES["CPost"]
        segments = [s for s in spec.path if isinstance(s, CpuSegment)]
        total = sum(model.cpu_segment_ns(spec, s) for s in segments)
        assert total == pytest.approx(spec.app_logic_ns)

    def test_generation_scales_tax_and_app_differently(self):
        icelake = self.make(PROCESSOR_GENERATIONS["icelake"])
        haswell = self.make(PROCESSOR_GENERATIONS["haswell"])
        spec = SERVICES["UniqId"]
        assert haswell.base_op_time_ns(spec, K.TCP) > icelake.base_op_time_ns(
            spec, K.TCP
        )
        segment = [s for s in spec.path if isinstance(s, CpuSegment)][0]
        hw_ratio = haswell.cpu_segment_ns(spec, segment) / icelake.cpu_segment_ns(
            spec, segment
        )
        tax_ratio = haswell.base_op_time_ns(spec, K.TCP) / icelake.base_op_time_ns(
            spec, K.TCP
        )
        assert hw_ratio > tax_ratio  # app logic benefits more from new cores

    def test_software_chain_sums_ops(self):
        model = self.make()
        spec = SERVICES["UniqId"]
        single = model.base_op_time_ns(spec, K.TCP)
        chain = model.software_chain_ns(
            spec, [K.TCP, K.TCP], int(spec.wire_median_bytes)
        )
        assert chain == pytest.approx(2 * single, rel=0.02)


#: (registry, service) for every service of every suite.
SUITE_SERVICES = [
    (REGISTRY, spec)
    for suite in (
        social_network_services,
        hotel_reservation_services,
        media_services,
        train_ticket_services,
        serverless_functions,
    )
    for spec in suite()
]
_RELIEF_REGISTRY = relief_suite_registry()
SUITE_SERVICES += [(_RELIEF_REGISTRY, spec) for spec in relief_suite_services()]
GENERATIONS = [None, *PROCESSOR_GENERATIONS.values()]


def _seed_base_op_ns(registry, spec, kind, generation):
    """CostModel.base_op_time_ns before the cost tables, written out."""
    counts = count_ops_by_category(registry, spec)
    per_op = {}
    for category in TaxCategory.TAX:
        count = counts[category]
        category_ns = spec.category_time_ns(category)
        per_op[category] = category_ns / count if count else 0.0
    tax_scale = generation.tax_scale if generation else 1.0
    return per_op[CATEGORY_OF_KIND[kind]] * tax_scale


def _seed_size_scale(spec, wire_size):
    ratio = wire_size / spec.wire_median_bytes
    return min(CostModel.MAX_SIZE_SCALE, max(CostModel.MIN_SIZE_SCALE, ratio))


def _seed_chain_ns(registry, spec, kinds, wire_size, generation):
    return sum(
        _seed_base_op_ns(registry, spec, kind, generation)
        * _seed_size_scale(spec, wire_size)
        for kind in kinds
    )


def _seed_segment_ns(spec, segment, generation):
    weights = [s.weight for s in spec.path if isinstance(s, CpuSegment)]
    app_logic_ns = spec.total_time_ns * spec.fractions[TaxCategory.APP_LOGIC]
    app_scale = generation.app_logic_scale if generation else 1.0
    return app_logic_ns * segment.weight / sum(weights) * app_scale


def _service_paths(registry, spec):
    """Every resolved path a service's chains can take, fanout arms too."""
    fields = sorted(BranchProbabilities().as_dict())
    paths = {}
    for invocation in spec.trace_invocations():
        for values in itertools.product((False, True), repeat=len(fields)):
            state = {**dict(zip(fields, values)), **invocation.forced}
            pending = expand_chain(registry, invocation, state)
            while pending:
                path = pending.pop()
                paths[id(path)] = path
                pending.extend(path.fanout_paths())
    return list(paths.values())


class TestCostTablesMatchTheFormulas:
    """The per-service cost tables return, bit for bit, what the
    formulas they replace compute: each term is ``base * size_scale``,
    summed left to right. Reassociating any of it fails here."""

    @settings(max_examples=300, deadline=None)
    @given(
        service=st.sampled_from(SUITE_SERVICES),
        generation=st.sampled_from(GENERATIONS),
        wire_size=st.integers(128, 65536),
        kinds=st.lists(st.sampled_from(list(K)), max_size=12),
    )
    def test_bit_identical(self, service, generation, wire_size, kinds):
        registry, spec = service
        model = CostModel(registry, generation=generation)
        for kind in K:
            op = model.op_for(spec, kind, wire_size)
            in_factor, out_factor = SIZE_FACTORS[kind]
            assert op.cpu_time_ns == _seed_base_op_ns(
                registry, spec, kind, generation
            ) * _seed_size_scale(spec, wire_size)
            assert op.data_in == max(1, int(wire_size * in_factor))
            assert op.data_out == max(1, int(wire_size * out_factor))
        assert model.software_chain_ns(spec, kinds, wire_size) == _seed_chain_ns(
            registry, spec, kinds, wire_size, generation
        )
        # The second size reads the tables the first one built.
        for size in (wire_size, wire_size // 3 + 100):
            for path in _service_paths(registry, spec):
                kinds = path.kinds()
                expected = _seed_chain_ns(registry, spec, kinds, size, generation)
                assert model.software_path_ns(spec, path, size) == expected
                assert model.software_chain_ns(spec, kinds, size) == expected
        for segment in spec.path:
            if isinstance(segment, CpuSegment):
                assert model.cpu_segment_ns(spec, segment) == _seed_segment_ns(
                    spec, segment, generation
                )


class TestPayloadModel:
    def make(self, median=1536.0):
        return PayloadModel(RandomStreams(0).stream("p"), median_bytes=median)

    def test_median_near_configured(self):
        model = self.make(2048.0)
        samples = sorted(model.sample_wire_size() for _ in range(4001))
        median = samples[len(samples) // 2]
        assert abs(median - 2048) / 2048 < 0.15

    def test_bounds_respected(self):
        model = self.make()
        for _ in range(500):
            size = model.sample_wire_size()
            assert PayloadModel.MIN_WIRE_BYTES <= size <= PayloadModel.MAX_WIRE_BYTES

    def test_long_tail_exists(self):
        model = self.make()
        samples = [model.sample_wire_size() for _ in range(5000)]
        assert max(samples) > 10 * 1536  # tens of KB tail (Fig 5)

    def test_ldb_carries_no_real_data(self):
        data_in, _ = PayloadModel.sizes_for(K.LDB, 2048)
        assert data_in < 256

    def test_compression_direction(self):
        cmp_in, cmp_out = PayloadModel.sizes_for(K.CMP, 1000)
        assert cmp_in > cmp_out
        dcmp_in, dcmp_out = PayloadModel.sizes_for(K.DCMP, 1000)
        assert dcmp_out > dcmp_in

    def test_bad_median_rejected(self):
        with pytest.raises(ValueError):
            self.make(0.0)


class TestArrivals:
    def test_poisson_mean_rate(self):
        gen = PoissonArrivals(10_000.0, RandomStreams(1).stream("a"))
        gaps = list(gen.gaps(20_000))
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(1e9 / 10_000.0, rel=0.05)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, RandomStreams(1).stream("a"))

    def test_mmpp_average_rate_matches(self):
        gen = MmppArrivals(
            10_000.0, RandomStreams(2).stream("m"), burst_factor=4.0, burst_share=0.15
        )
        gaps = list(gen.gaps(40_000))
        rate = 1e9 / (sum(gaps) / len(gaps))
        assert rate == pytest.approx(10_000.0, rel=0.1)

    def test_mmpp_burstier_than_poisson(self):
        """The MMPP gap distribution has a higher coefficient of
        variation than the exponential's CV of 1."""
        gen = MmppArrivals(
            10_000.0, RandomStreams(3).stream("m"), burst_factor=8.0, burst_share=0.1
        )
        gaps = list(gen.gaps(40_000))
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cv = var ** 0.5 / mean
        assert cv > 1.05

    def test_mmpp_validation(self):
        stream = RandomStreams(0).stream("m")
        with pytest.raises(ValueError):
            MmppArrivals(0.0, stream)
        with pytest.raises(ValueError):
            MmppArrivals(100.0, stream, burst_factor=0.5)
        with pytest.raises(ValueError):
            MmppArrivals(100.0, stream, burst_share=1.5)
