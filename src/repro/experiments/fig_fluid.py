"""Fluid-tier experiment: accuracy and speedup vs the exact DES.

Beyond-paper experiment validating the hybrid fluid/DES engine
(:mod:`repro.cluster.fluid`): a homogeneous four-machine fleet serves
two SocialNetwork services at each load, once with every request
simulated exactly and once with half the fleet running the fluid tier
(static policy, per-request arrivals so both runs see identical CRN
arrival streams). Each (mode, load) cell shares a derived seed with
its counterpart, so the comparison isolates the approximation itself.

Reported per load: exact vs fluid-merged mean latency with the
relative error, completed-work conservation, and the scheduled-event
reduction — a deterministic, machine-independent proxy for the
wall-clock speedup (the measured wall-clock ratio lives in
``BENCH_kernel.json`` and ``docs/performance.md``, where machine
variance belongs). Expected shape: errors well inside the
:data:`~repro.cluster.fluid.FLUID_TOLERANCES` bands and event
reductions growing with load, since absorbed requests cost O(1) events
instead of a full orchestration lifecycle.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster import FLUID_TOLERANCES, ClusterConfig, FluidConfig, run_cluster
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pick_service, requests_for, signed_pct

from .parallel import Shard, ShardedExperiment

__all__ = ["run", "LOADS_RPS", "SERVICES", "MACHINES", "FLUID_MACHINES", "MODES"]

#: Cluster-wide per-service offered load (RPS).
LOADS_RPS = [30000.0, 50000.0]

#: Two services: one accel-light, one payload/remote-heavy.
SERVICES = ("UniqId", "StoreP")

MACHINES = 4

#: Machines pinned fluid in fluid mode (half the fleet; the other half
#: stays exact and feeds calibration).
FLUID_MACHINES = (2, 3)

MODES = ("exact", "fluid")


def _services():
    all_services = social_network_services()
    return [pick_service(all_services, name) for name in SERVICES]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        # Seed depends on the load only: the exact and fluid cells at
        # one load see identical arrivals and request bodies (common
        # random numbers), so differences are pure approximation error.
        Shard((mode, load), {"mode": mode, "load_rps": load},
              derive_seed(seed, "fig_fluid", load))
        for mode in MODES
        for load in LOADS_RPS
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, float]:
    """One (mode, load) cell: exact or half-fluid fleet."""
    fluid = None
    if shard.params["mode"] == "fluid":
        fluid = FluidConfig(
            fluid_machines=FLUID_MACHINES,
            calibrate_requests=20,
        )
    config = ClusterConfig(
        policy="round-robin",
        machines=MACHINES,
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="poisson",
        rate_rps=shard.params["load_rps"],
        warmup_fraction=0.0,
        fluid=fluid,
    )
    result = run_cluster(_services(), config)
    stats = result.fluid_stats or {}
    return {
        "mean_ns": result.merged_mean_ns(),
        "completed": result.merged_completed(),
        "jobs_integral_ns": result.jobs_integral_ns(),
        "events": float(result.cluster.env.scheduled_events),
        "fluid_fraction": float(stats.get("mean_fluid_fraction", 0.0)),
        "absorbed": float(stats.get("absorbed", 0.0)),
    }


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    cells = {
        mode: {load: payloads[(mode, load)] for load in LOADS_RPS}
        for mode in MODES
    }
    rows = []
    errors: Dict[float, float] = {}
    reductions: Dict[float, float] = {}
    for load in LOADS_RPS:
        exact = cells["exact"][load]
        fluid = cells["fluid"][load]
        mean_err = (fluid["mean_ns"] - exact["mean_ns"]) / exact["mean_ns"]
        work_err = (fluid["completed"] - exact["completed"]) / exact["completed"]
        reduction = exact["events"] / fluid["events"]
        errors[load] = mean_err
        reductions[load] = reduction
        rows.append([
            f"{load / 1000:g}K",
            exact["mean_ns"] / 1000.0,
            fluid["mean_ns"] / 1000.0,
            signed_pct(100.0 * mean_err),
            signed_pct(100.0 * work_err, digits=2),
            f"{100.0 * fluid['fluid_fraction']:.0f}%",
            f"{reduction:.2f}x",
        ])
    table = format_table(
        ["Load", "Exact mean (us)", "Fluid mean (us)", "Mean err",
         "Work err", "Fluid share", "Event cut"],
        rows,
        title=(
            "Fluid tier vs exact DES: accuracy and event reduction\n"
            f"({MACHINES} machines, {len(FLUID_MACHINES)} fluid; "
            f"CRN arrivals per load; tolerance "
            f"{FLUID_TOLERANCES['mean_latency']:.0%} on mean latency)"
        ),
    )
    worst = max(abs(err) for err in errors.values())
    table += (
        f"\n\nWorst mean-latency error {100.0 * worst:.1f}% "
        f"(band {FLUID_TOLERANCES['mean_latency']:.0%}); scheduled-event "
        "reduction " + ", ".join(
            f"{load / 1000:g}K={reductions[load]:.2f}x" for load in LOADS_RPS
        )
    )
    return {
        "cells": cells,
        "mean_errors": errors,
        "event_reductions": reductions,
        "worst_mean_error": worst,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig_fluid", make_shards, run_shard, merge,
    claim=(
        "(beyond paper) hybrid fluid/DES tier: "
        "analytical M/M/k queues on cold machines track exact DES within "
        "tolerance under CRN while cutting scheduled events"
    ),
)
run = SHARDED.run
