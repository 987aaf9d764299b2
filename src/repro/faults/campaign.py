"""Chaos campaigns: a scenario x architecture x seed resilience grid.

A *campaign* runs a fixed grid of fault scenarios against a fixed set
of architectures, several seeds (replicas) per cell, and reduces every
cell to the same four-number resilience scorecard:

* **availability** — fraction of requests that completed without error
  or fatal timeout within the SLO (censored requests count against it);
* **P99 inflation** — faulty-run P99 over the clean-run P99 at the
  same seed (CRN: identical arrivals and request bodies, so the ratio
  is fault damage, not sampling noise);
* **MTTR** — mean time to recovery measured from *telemetry*, not from
  ground truth: each cell attaches a burn-rate :class:`~repro.obs.slo.
  SLOMonitor` and MTTR is the mean firing->resolved span of its alert
  lifecycles (still-firing alerts are charged up to the end of the
  run). A scenario the alert plane never notices has MTTR 0 — the
  scorecard measures the *observed* incident, which is what an
  on-call rotation experiences;
* **retry amplification** — total accelerator ops executed in the
  faulty run over the clean run. Recovery that re-executes work
  (watchdog retries, duplicated abandoned attempts) pushes this above
  1; degradation to the CPU pulls it down.

The grid cells are independent and embarrassingly parallel; the
``campaign`` experiment (:mod:`repro.experiments.fig_campaign`) shards
them through the standard parallel runner and renders the scorecard
table that CI diffs against its golden fixture.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List

from .config import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - a campaign loads these when it runs
    from ..obs import ObsConfig
    from ..server.driver import RunConfig
    from ..server.machine import SimulatedServer

__all__ = [
    "ARCHITECTURES",
    "REPLICAS",
    "SCENARIOS",
    "SCENARIO_ORDER",
    "SERVICE",
    "RATE_RPS",
    "SLO_MULTIPLIER",
    "DRAIN_NS",
    "cell_config",
    "score",
    "run_cell",
    "aggregate",
]

#: The measured service: the heaviest accelerator path (4 kinds plus
#: two remote waits), so every fault category has something to hit.
SERVICE = "StoreP"

#: Offered load (RPS): light enough that damage is attributable to the
#: scenario, not to saturation.
RATE_RPS = 2000.0

#: SLO = multiplier x the same-seed clean mean latency.
SLO_MULTIPLIER = 5.0

#: Simulated drain budget past the last arrival (ns).
DRAIN_NS = 100e6

#: Campaign grid: the paper's centralized baseline vs its proposal.
ARCHITECTURES = ["relief", "accelflow"]

#: Seeds per cell; replica r of every (scenario, architecture) cell
#: shares one derived seed, so architectures stay CRN-aligned.
REPLICAS = 3

#: Scenario name -> fault mix. ``fig_faults`` reuses the fail-stop
#: mixes; the gray scenarios exercise the gray windows of
#: :mod:`repro.faults.plane`.
SCENARIOS: Dict[str, FaultConfig] = {
    "transient": FaultConfig(
        pe_transient_rate=0.05,
        dma_stall_rate=0.05,
        dma_stall_ns=5e4,
        dma_corruption_rate=0.01,
    ),
    "wear": FaultConfig(
        pe_wedge_rate=0.01,
        pe_wedge_ns=8e6,  # past the watchdog: forces timeout + retry
        pe_stuck_mtbf_ns=2e7,
        pe_repair_ns=5e6,
        pe_stuck_max=32,
        noc_flap_interval_ns=5e6,
        noc_flap_down_ns=2e4,
        noc_flap_max=128,
        noc_degraded_factor=1.1,
    ),
    "gray-limp": FaultConfig(
        # Probability 1: *this* machine limps — the campaign scores the
        # blast radius of a limping server, not the odds of having one.
        gray_limp_probability=1.0,
        gray_limp_factor=2.0,
    ),
    "gray-slowdown": FaultConfig(
        gray_slowdown_interval_ns=2e6,
        gray_slowdown_ns=2e6,
        gray_slowdown_factor=6.0,
        gray_slowdown_max=16,
    ),
}

#: Render order (fail-stop first, gray last).
SCENARIO_ORDER = ["transient", "wear", "gray-limp", "gray-slowdown"]

#: SLO-monitor geometry for the MTTR signal: a fast window of a few
#: dozen arrivals at RATE_RPS, an availability objective of 95% (the
#: campaign *wants* alerts at run scale — a 99.9% objective would
#: need far longer runs to distinguish burn from noise), and both
#: windows burning at 2x budget (10% bad) before the alert fires.
#: Calibrated so fail-stop incidents (the wear scenario's wedge
#: pile-ups) reliably fire while the gray scenarios stay silent —
#: which is the point the scorecard makes: gray failures inflate P99
#: without ever tripping burn-rate alerting.
_FAST_WINDOW_NS = 10e6
_SLOW_WINDOW_NS = 20e6
_AVAILABILITY = 0.95
_BURN_THRESHOLD = 2.0


def _slo_obs(slo_ns: float) -> ObsConfig:
    from ..obs import ObsConfig
    from ..obs.slo import SLOMonitorConfig, SLOTarget

    return ObsConfig(
        slo=SLOMonitorConfig(
            targets=(
                SLOTarget(
                    SERVICE, availability=_AVAILABILITY, latency_ns=slo_ns
                ),
            ),
            fast_window_ns=_FAST_WINDOW_NS,
            slow_window_ns=_SLOW_WINDOW_NS,
            burn_threshold=_BURN_THRESHOLD,
        )
    )


def cell_config(architecture: str, seed: int, n_requests: int) -> RunConfig:
    """A chaos cell's open-loop run: Poisson arrivals at ``RATE_RPS``."""
    from ..server.driver import RunConfig

    return RunConfig(
        architecture,
        requests_per_service=n_requests,
        seed=seed,
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        drain_ns=DRAIN_NS,
    )


def _total_ops(server: SimulatedServer) -> float:
    return float(
        sum(a.ops_completed for a in server.hardware.all_accelerators())
    )


def score(in_flight, now_ns: float, slo_ns: float) -> Dict[str, float]:
    """Latency and availability of one chaos run's submissions.

    A censored (unfinished) request counts with latency ``now_ns -
    arrival_ns`` and against availability: a request is *available*
    when it completed with no error, no fatal timeout and a latency
    within ``slo_ns``, out of every submission.
    """
    from ..sim import LatencyRecorder

    recorder = LatencyRecorder()
    available = errors = timeouts = censored = 0
    for request, _process in in_flight:
        if not request.completed:
            censored += 1
            recorder.record(now_ns - request.arrival_ns)
            continue
        recorder.record(request.latency_ns)
        if request.error:
            errors += 1
        if request.timed_out:
            timeouts += 1
        if (
            not request.error
            and not request.timed_out
            and request.latency_ns <= slo_ns
        ):
            available += 1
    return {
        "availability": available / len(in_flight) if in_flight else 0.0,
        "p99_ns": recorder.p99() if len(recorder) else 0.0,
        "mean_ns": recorder.mean() if len(recorder) else 0.0,
        "completed": float(len(in_flight) - censored),
        "censored": float(censored),
        "errors": float(errors),
        "timeouts": float(timeouts),
    }


def run_cell(
    architecture: str, scenario: str, seed: int, n_requests: int
) -> Dict[str, float]:
    """One campaign cell: clean CRN reference + faulty run + scorecard."""
    from ..server.driver import calibrate_slo, drive, make_server
    from ..workloads import social_network_services

    spec = next(
        s for s in social_network_services() if s.name == SERVICE
    )
    config = cell_config(architecture, seed, n_requests)
    slo_ns, clean_flight, clean_server = calibrate_slo(
        spec, config, SLO_MULTIPLIER
    )
    clean_p99 = score(clean_flight, clean_server.env.now, slo_ns)["p99_ns"]
    clean_ops = _total_ops(clean_server)

    obs = _slo_obs(slo_ns)
    config = replace(config, faults=SCENARIOS[scenario], obs=obs)
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    faulty = score(in_flight, server.env.now, slo_ns)

    # MTTR from the alert plane: firing -> resolved per lifecycle;
    # alerts still firing at the end of the run are charged up to now.
    monitor = obs.slo_monitor
    end_ns = server.env.now
    spans = [
        (alert.resolved_at_ns if alert.resolved_at_ns is not None else end_ns)
        - alert.fired_at_ns
        for alert in monitor.fired_ever()
        if alert.fired_at_ns is not None
    ]
    mttr_ns = sum(spans) / len(spans) if spans else 0.0

    faulty_ops = _total_ops(server)
    plane = server.fault_plane
    return {
        "availability": faulty["availability"],
        "p99_inflation": faulty["p99_ns"] / clean_p99
        if clean_p99 > 0
        else 0.0,
        "mttr_ns": mttr_ns,
        "amplification": faulty_ops / clean_ops if clean_ops > 0 else 0.0,
        "alerts_fired": float(len(spans)),
        "censored": faulty["censored"],
        "injected": float(plane.total_injected()) if plane is not None else 0.0,
        "slo_ns": slo_ns,
    }


def aggregate(cells: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean scorecard over one cell's replicas."""
    if not cells:
        return {}
    keys = (
        "availability",
        "p99_inflation",
        "mttr_ns",
        "amplification",
        "alerts_fired",
        "censored",
        "injected",
    )
    return {key: sum(c[key] for c in cells) / len(cells) for key in keys}
