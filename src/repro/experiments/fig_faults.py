"""Chaos experiment: availability under injected hardware faults.

Beyond-paper experiment: every architecture serves the same StoreP
open-loop Poisson arrival sequence (common random numbers per scenario)
while the fault plane injects a scenario-specific fault mix. Each cell
first measures a fault-free run at the same seed to establish the SLO
(``SLO_MULTIPLIER`` x clean mean latency), then replays the arrivals
with faults enabled. A request counts as *available* when it completed
with no error, no fatal remote timeout, and a latency within the SLO;
censored (unfinished) requests count against availability.

Scenarios:

* ``clean``      — no faults; calibrates the availability ceiling.
* ``transient``  — soft PE errors + DMA stalls/corruption; recovered by
  bounded step retries and DMA retries.
* ``wear``       — wedged PEs (watchdog territory), stuck-at PE drains,
  NoC link flaps; recovered by watchdogs, breakers and CPU fallback.
* ``mgr-outage`` — the centralized hardware manager goes dark for long
  windows (plus mild transients everywhere). Decentralized
  orchestrators have no manager to lose, so this scenario isolates the
  fault-tolerance benefit of AccelFlow's per-accelerator dispatchers
  over RELIEF's single hardware unit.

Expected shape: all architectures stay near 100% on ``clean`` and
recover well from ``transient``; ``wear`` costs some availability to
watchdog latency; under ``mgr-outage`` RELIEF's availability collapses
(every submission, completion and retirement queues behind the dark
manager) while AccelFlow is only grazed by the background transients.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..faults import FaultConfig
from ..faults.campaign import (
    DRAIN_NS,
    RATE_RPS,
    SCENARIOS as CAMPAIGN_SCENARIOS,
    SERVICE,
    SLO_MULTIPLIER,
    cell_config,
)
from ..server.driver import calibrate_slo, drive, make_server
from ..sim import LatencyRecorder, derive_seed
from ..workloads import social_network_services
from .common import MAIN_ARCHITECTURES, format_table, pick_service, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = [
    "run", "SCENARIOS", "SERVICE", "RATE_RPS", "SLO_MULTIPLIER", "DRAIN_NS",
]

#: Scenario name -> fault mix (None = fault-free baseline). The
#: transient and wear mixes are the chaos campaign's; injector budgets
#: (``*_max``) are sized for the ``full`` scale horizon, and the run
#: simply stops at its own horizon on smaller scales.
SCENARIOS: Dict[str, Optional[FaultConfig]] = {
    "clean": None,
    "transient": CAMPAIGN_SCENARIOS["transient"],
    "wear": CAMPAIGN_SCENARIOS["wear"],
    "mgr-outage": FaultConfig(
        pe_transient_rate=0.02,
        manager_outage_interval_ns=2e6,
        manager_outage_ns=3e6,
        manager_outage_max=256,
    ),
}

#: Render order (clean first, harshest last).
SCENARIO_ORDER = ["clean", "transient", "wear", "mgr-outage"]


def _summarize(in_flight, server, slo_ns) -> Dict[str, float]:
    recorder = LatencyRecorder()
    available = 0
    errors = timeouts = censored = 0
    for request, _process in in_flight:
        if not request.completed:
            censored += 1
            recorder.record(server.env.now - request.arrival_ns)
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
    stats = server.orchestrator.stats()
    recovery = stats.get("recovery", {})
    plane = server.fault_plane
    return {
        "availability": available / len(in_flight) if in_flight else 0.0,
        "p99_ns": recorder.p99() if len(recorder) else 0.0,
        "mean_ns": recorder.mean() if len(recorder) else 0.0,
        "completed": float(len(in_flight) - censored),
        "censored": float(censored),
        "errors": float(errors),
        "timeouts": float(timeouts),
        "fallbacks": float(stats.get("fallbacks", 0.0)),
        "injected": float(plane.total_injected()) if plane is not None else 0.0,
        "watchdog_timeouts": float(recovery.get("watchdog_timeouts", 0.0)),
        "step_retries": float(recovery.get("step_retries", 0.0)),
        "degraded_to_cpu": float(recovery.get("degraded_to_cpu", 0.0)),
        "breaker_trips": float(recovery.get("breaker_trips", 0.0)),
    }


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        # Seed depends on the scenario only: all architectures in one
        # scenario see identical arrivals and request bodies (CRN).
        Shard(
            "fig_faults",
            (scenario, architecture),
            {"scenario": scenario, "architecture": architecture},
            derive_seed(seed, "fig_faults", scenario),
        )
        for scenario in SCENARIO_ORDER
        for architecture in MAIN_ARCHITECTURES
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, float]:
    """Availability + latency metrics for one (scenario, arch) cell."""
    scenario = shard.params["scenario"]
    architecture = shard.params["architecture"]
    spec = pick_service(social_network_services(), SERVICE)
    n_requests = requests_for(scale)

    # Fault-free reference at the same seed pins the SLO per cell, so
    # availability measures fault damage, not architecture speed.
    config = cell_config(architecture, shard.seed, n_requests)
    slo_ns, in_flight, server = calibrate_slo(spec, config, SLO_MULTIPLIER)
    faults = SCENARIOS[scenario]
    if faults is not None:
        config = replace(config, faults=faults)
        server = make_server(config)
        in_flight = drive(server, [spec], config)
    payload = _summarize(in_flight, server, slo_ns)
    payload["slo_ns"] = slo_ns
    return payload


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    availability = {
        scenario: {
            arch: payloads[(scenario, arch)]["availability"]
            for arch in MAIN_ARCHITECTURES
        }
        for scenario in SCENARIO_ORDER
    }
    p99 = {
        scenario: {
            arch: payloads[(scenario, arch)]["p99_ns"]
            for arch in MAIN_ARCHITECTURES
        }
        for scenario in SCENARIO_ORDER
    }

    rows = [
        [scenario]
        + [100.0 * availability[scenario][arch] for arch in MAIN_ARCHITECTURES]
        for scenario in SCENARIO_ORDER
    ]
    table = format_table(
        ["Scenario"] + MAIN_ARCHITECTURES,
        rows,
        title=(
            "Chaos: availability (%) under injected hardware faults\n"
            f"({SERVICE} @ {RATE_RPS:g} RPS; SLO = {SLO_MULTIPLIER:g}x "
            "fault-free mean; censored/errored/late = unavailable)"
        ),
    )
    rows = [
        [scenario]
        + [p99[scenario][arch] / 1000.0 for arch in MAIN_ARCHITECTURES]
        for scenario in SCENARIO_ORDER
    ]
    table += "\n\n" + format_table(
        ["Scenario"] + MAIN_ARCHITECTURES,
        rows,
        title="Chaos: P99 latency (us) per scenario",
    )

    recovery_rows = []
    for arch in MAIN_ARCHITECTURES:
        cell = payloads[("wear", arch)]
        recovery_rows.append(
            [
                arch,
                cell["injected"],
                cell["watchdog_timeouts"],
                cell["step_retries"],
                cell["degraded_to_cpu"],
                cell["breaker_trips"],
            ]
        )
    table += "\n\n" + format_table(
        ["Arch", "Injected", "Watchdogs", "Retries", "ToCPU", "Trips"],
        recovery_rows,
        title="Chaos: recovery-plane activity under the wear scenario",
    )

    accelflow = availability["mgr-outage"]["accelflow"]
    relief = availability["mgr-outage"]["relief"]
    verdict = "CONFIRMED" if accelflow > relief else "NOT CONFIRMED"
    table += (
        "\n\nDecentralization under manager outage: accelflow "
        f"{100.0 * accelflow:.1f}% vs relief {100.0 * relief:.1f}% "
        f"availability -> {verdict}"
    )
    return {
        "availability": availability,
        "p99_ns": p99,
        "decentralization_confirmed": accelflow > relief,
        "table": table,
    }


SHARDED = ShardedExperiment("fig_faults", make_shards, run_shard, merge)


def run(scale: str = "quick", seed: int = 0, executor=None) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED.run(scale=scale, seed=seed, executor=executor)
