"""Disabled observability must not slow the simulator down.

Acceptance gate for the obs subsystem: with ``RunConfig.obs`` left at
``None`` *and* with an all-off ``ObsConfig`` attached, the hot paths
reduce to single attribute checks, so median runtime must stay within
a few percent of the uninstrumented baseline. Run explicitly with
``pytest benchmarks/test_obs_overhead.py -s``.
"""

import statistics
import time

from repro.obs import ObsConfig
from repro.server import RunConfig, run_experiment
from repro.workloads import social_network_services

ROUNDS = 7
REQUESTS = 150
# Generous margin over the ±5% acceptance target: single-machine
# timing noise at this workload size easily exceeds the real cost
# (a handful of `is None` checks), and a hard gate must not flake.
MAX_SLOWDOWN = 1.25


def _median_runtime(obs):
    services = [s for s in social_network_services() if s.name == "UniqId"]
    durations = []
    for round_index in range(ROUNDS):
        config = RunConfig(
            architecture="accelflow",
            requests_per_service=REQUESTS,
            seed=round_index,
            colocated=True,
            obs=obs,
        )
        start = time.perf_counter()
        run_experiment(services, config)
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


#: The live telemetry plane (bus + SLO monitor + flight recorder) does
#: real per-event work; it is allowed to cost more than the disabled
#: path, but a full streaming stack should still stay within a small
#: multiple of the baseline at this workload size.
MAX_TELEMETRY_SLOWDOWN = 3.0


def _telemetry_obs():
    from repro.obs import SLOMonitorConfig, SLOTarget

    return ObsConfig(
        telemetry=True,
        flight_recorder=True,
        slo=SLOMonitorConfig(
            targets=(SLOTarget("*", availability=0.99, latency_ns=1e6),),
            fast_window_ns=2e6,
            slow_window_ns=2e7,
        ),
    )


def test_disabled_observability_overhead():
    baseline = _median_runtime(obs=None)
    disabled = _median_runtime(obs=ObsConfig())  # constructed but all off
    ratio = disabled / baseline
    print(
        f"\nobs overhead: baseline {baseline * 1e3:.1f} ms, "
        f"disabled-obs {disabled * 1e3:.1f} ms, ratio {ratio:.3f}"
    )
    assert ratio < MAX_SLOWDOWN, (
        f"disabled observability slowed the simulator by {ratio:.2f}x"
    )


def test_streaming_telemetry_overhead():
    """Telemetry-on vs telemetry-off cost of the same seeded runs.

    The disabled path is the ±5% acceptance gate above; the enabled
    path (bus fan-out on every request terminal, burn-rate sweeps, the
    recorder's ring) gets a looser bound that still catches an
    accidentally quadratic subscriber or sweep.
    """
    off = _median_runtime(obs=ObsConfig())
    on = _median_runtime(obs=_telemetry_obs())
    ratio = on / off
    print(
        f"\ntelemetry overhead: off {off * 1e3:.1f} ms, "
        f"on {on * 1e3:.1f} ms, ratio {ratio:.3f}"
    )
    assert ratio < MAX_TELEMETRY_SLOWDOWN, (
        f"streaming telemetry slowed the simulator by {ratio:.2f}x"
    )


def test_tracing_overhead():
    """Trace-only and trace-plus-telemetry vs all-off.

    With tracing on, the session's bus carries every fact and the
    tracer draws its instants from it; spans stream onto the bus only
    with telemetry on. Both regimes are gated at the telemetry gate's
    documented multiple.
    """
    off = _median_runtime(obs=ObsConfig())
    traced = _median_runtime(obs=ObsConfig(trace=True))
    both = _median_runtime(obs=ObsConfig(trace=True, telemetry=True))
    print(
        f"\ntracing overhead: off {off * 1e3:.1f} ms, "
        f"trace {traced * 1e3:.1f} ms (ratio {traced / off:.3f}), "
        f"trace+telemetry {both * 1e3:.1f} ms (ratio {both / off:.3f})"
    )
    assert traced / off < MAX_TELEMETRY_SLOWDOWN, (
        f"tracing slowed the simulator by {traced / off:.2f}x"
    )
    assert both / off < MAX_TELEMETRY_SLOWDOWN, (
        f"tracing plus telemetry slowed the simulator by {both / off:.2f}x"
    )
