"""Coverage for remaining corners: arrival factories, remote scaling,
energy monotonicity, encoding limits."""

import pytest

from repro.orchestration import ARCHITECTURES
from repro.orchestration.base import REMOTE_ARCHITECTURE_SCALE
from repro.sim import RandomStreams
from repro.workloads import (
    ALIBABA_AVERAGE_RPS,
    make_arrivals,
    social_network_services,
    verify_average_rate,
)


class TestArrivalFactories:
    def test_alibaba_average_matches_paper(self):
        assert verify_average_rate(social_network_services())
        mean = sum(s.rate_rps for s in social_network_services()) / 8
        assert mean == pytest.approx(ALIBABA_AVERAGE_RPS, rel=0.02)

    def test_azure_is_spikier_than_alibaba(self):
        streams = RandomStreams(0)
        azure = make_arrivals("azure", 1000.0, streams.stream("a"))
        alibaba = make_arrivals("alibaba", 1000.0, streams.stream("b"))
        assert azure.burst_factor > alibaba.burst_factor
        assert azure.burst_share < alibaba.burst_share


class TestRemoteScaling:
    def test_every_architecture_has_a_scale(self):
        for name in ARCHITECTURES:
            assert name in REMOTE_ARCHITECTURE_SCALE, name

    def test_software_baseline_defines_the_medians(self):
        assert REMOTE_ARCHITECTURE_SCALE["non-acc"] == 1.0

    def test_accelerated_dependencies_respond_faster(self):
        for name, scale in REMOTE_ARCHITECTURE_SCALE.items():
            if name != "non-acc":
                assert scale < 1.0, name
        assert (
            REMOTE_ARCHITECTURE_SCALE["accelflow"]
            <= REMOTE_ARCHITECTURE_SCALE["relief"]
        )


class TestEnergyMonotonicity:
    def test_more_accel_busy_time_more_energy(self):
        from repro.hw import AcceleratorKind, EnergyModel

        model = EnergyModel()
        low = model.accel_energy_j(AcceleratorKind.TCP, 1e9, 1e9, 8)
        high = model.accel_energy_j(AcceleratorKind.TCP, 1e9, 7e9, 8)
        assert high > low

    def test_orchestration_energy_grows_with_activity(self):
        from repro.hw import EnergyModel

        model = EnergyModel()
        idle = model.orchestration_energy_j(1e9, 0.0, 0)
        busy = model.orchestration_energy_j(1e9, 5e8, 100_000)
        assert busy > idle > 0


class TestEncodingLimits:
    def test_oversized_metadata_rejected(self):
        from repro.core import EncodingError
        from repro.core.encoding import encode_trace

        # 15 accels + many branches blow the metadata region while
        # staying within 16 accelerator slots is hard to construct; an
        # over-slot trace is the reliable failure mode.
        from repro.core.nodes import AccelStep
        from repro.core.trace import Trace
        from repro.hw import AcceleratorKind

        trace = Trace("big", [AccelStep(AcceleratorKind.SER) for _ in range(17)])
        with pytest.raises(EncodingError):
            encode_trace(trace)

    def test_registry_splits_and_links(self):
        from repro.core import TraceRegistry
        from repro.core.nodes import AccelStep
        from repro.core.trace import Trace
        from repro.hw import AcceleratorKind

        registry = TraceRegistry()
        registry.register(
            Trace("mega", [AccelStep(AcceleratorKind.TCP) for _ in range(33)])
        )
        assert "mega" in registry and "mega#1" in registry and "mega#2" in registry
        registry.validate_closed()
        # The split chain still executes 33 steps end to end.
        total = 0
        name = "mega"
        while name:
            path = registry.get(name).resolve({})
            total += len(path.steps)
            name = path.next_trace
        assert total == 33
