"""Gray faults: slow-but-alive categories of the fault plane.

Pins the two gray categories (machine limp, instance slowdowns)
against the plane's core contracts: zero-rate knobs are byte-identical
to the fault-free simulator, active knobs only ever *slow* work
(nothing errors), kind scoping is honoured, and seeded runs reproduce
exactly. ``CHAOS_SEED`` rotates the seed in CI (see the chaos job).
"""

import os

import pytest

from repro.faults import FaultConfig
from repro.server import SimulatedServer
from repro.server.driver import RunConfig, drive, make_server
from repro.sim import LatencyRecorder
from repro.workloads import social_network_services

SERVICE = "StoreP"
RATE_RPS = 2000.0
N_REQUESTS = 40
SEED = int(os.environ.get("CHAOS_SEED", "0"))

LIMP = FaultConfig(gray_limp_probability=1.0, gray_limp_factor=3.0)
SLOWDOWN = FaultConfig(
    gray_slowdown_interval_ns=1e6,
    gray_slowdown_ns=2e6,
    gray_slowdown_factor=8.0,
    gray_slowdown_max=16,
)


def _measure(faults, seed=SEED, **config_kw):
    """One seeded open-loop run; returns (samples, mean, server)."""
    spec = [s for s in social_network_services() if s.name == SERVICE][0]
    config = RunConfig(
        "accelflow",
        requests_per_service=N_REQUESTS,
        seed=seed,
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        faults=faults,
        **config_kw,
    )
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    assert all(r.completed for r, _ in in_flight)
    assert not any(r.error for r, _ in in_flight), "gray faults never error"
    recorder = LatencyRecorder(warmup_fraction=0.0)
    for request, _ in in_flight:
        recorder.record(request.latency_ns)
    return tuple(recorder.samples), recorder.mean(), server


class TestZeroRateIdentity:
    def test_gray_knobs_at_zero_install_nothing(self):
        config = FaultConfig()
        assert not config.gray_enabled
        assert not config.enabled

    def test_gray_half_absent_when_only_failstop_enabled(self):
        """A fail-stop-only config must not draw a limp or create a
        gray stream (byte-for-byte legacy behavior)."""
        _, _, server = _measure(FaultConfig(pe_transient_rate=0.05))
        assert server.fault_plane is not None
        assert server.fault_plane.limp == 1.0
        assert not any(
            name.startswith("faults/gray") for name in server.streams.names()
        )

    def test_failstop_run_identical_with_and_without_gray_fields(self):
        """The gray *fields* existing on the config (at zero) must not
        move one sample of a fail-stop run."""
        base = FaultConfig(pe_transient_rate=0.1, dma_stall_rate=0.05)
        a, _, _ = _measure(base)
        b, _, _ = _measure(
            FaultConfig(
                pe_transient_rate=0.1,
                dma_stall_rate=0.05,
                gray_limp_factor=9.0,  # factor without a trigger: inert
                gray_slowdown_factor=9.0,
            )
        )
        assert a == b


class TestMachineLimp:
    def test_certain_limp_inflates_every_request(self):
        clean, clean_mean, _ = _measure(None)
        limped, limp_mean, server = _measure(LIMP)
        assert server.fault_plane.limp == LIMP.gray_limp_factor
        assert server.fault_plane.injected["gray-limp"] == 1
        assert limp_mean > clean_mean
        # Every accelerator op slowed: each sample strictly grows.
        assert all(l > c for l, c in zip(limped, clean))

    def test_zero_probability_never_limps(self):
        clean, _, _ = _measure(None)
        config = FaultConfig(
            gray_limp_probability=0.0,
            # Another gray trigger keeps the plane installed but its
            # windows draw from their own stream: the limp draw must
            # simply never happen at probability 0.
            gray_slowdown_interval_ns=1e9,
            gray_slowdown_max=1,
        )
        _, _, server = _measure(config)
        assert server.fault_plane.limp == 1.0
        assert server.fault_plane.injected["gray-limp"] == 0


class TestInstanceSlowdown:
    def test_slowdown_windows_inflate_latency(self):
        _, clean_mean, _ = _measure(None)
        _, slow_mean, server = _measure(SLOWDOWN)
        assert server.fault_plane.injected["gray-slowdown"] > 0
        assert slow_mean > clean_mean

    def test_windows_close_after_drain(self):
        _, _, server = _measure(SLOWDOWN)
        server.env.run()  # let remaining injector windows expire
        assert not server.fault_plane._factor

    def test_kind_scoping_only_slows_that_kind(self):
        """Scoped to one kind, every opened window targets that kind —
        checked through the telemetry events the plane publishes."""
        from repro.obs import ObsConfig
        from repro.obs.telemetry import FaultInjected

        scoped = FaultConfig(
            gray_slowdown_interval_ns=1e6,
            gray_slowdown_ns=2e6,
            gray_slowdown_factor=8.0,
            gray_slowdown_max=16,
            gray_slowdown_kind="TCP",
        )
        obs = ObsConfig(telemetry=True)
        _, _, server = _measure(scoped, obs=obs)
        events = [
            event
            for event in obs.bus.recent()
            if isinstance(event, FaultInjected)
            and event.category == "gray-slowdown"
        ]
        assert server.fault_plane.injected["gray-slowdown"] > 0
        assert events, "no slowdown events reached the bus"
        assert all(e.args["accel"] == "TCP" for e in events)

    def test_unknown_kind_rejected_at_attach(self):
        config = FaultConfig(
            gray_slowdown_interval_ns=1e6, gray_slowdown_kind="Warp"
        )
        with pytest.raises(ValueError, match="gray_slowdown_kind"):
            SimulatedServer("accelflow", seed=SEED, faults=config)


class TestStatsAndDeterminism:
    def test_gray_counters_surface_in_plane_stats(self):
        _, _, server = _measure(SLOWDOWN)
        injected = server.fault_plane.injected
        stats = server.fault_plane.stats()
        assert stats["gray-slowdown"] == float(injected["gray-slowdown"])
        assert stats["gray-limp"] == float(injected["gray-limp"])
        assert stats["total_injected"] >= stats["gray-slowdown"]

    def test_service_factor_composes_limp_and_slowdown(self):
        _, _, server = _measure(LIMP)
        plane = server.fault_plane
        accel = server.hardware.all_accelerators()[0]
        assert plane.service_factor(accel) == LIMP.gray_limp_factor
        plane._factor[accel] = 4.0
        assert plane.service_factor(accel) == LIMP.gray_limp_factor * 4.0
        del plane._factor[accel]

    @pytest.mark.parametrize("config", [LIMP, SLOWDOWN], ids=["limp", "slow"])
    def test_seeded_runs_reproduce(self, config):
        a = _measure(config)
        b = _measure(config)
        assert a[0] == b[0]
        assert a[2].fault_plane.stats() == b[2].fault_plane.stats()
