"""Cluster experiment: balancing policies across MMPP burst loads.

Beyond-paper experiment: a heterogeneous three-machine fleet (one
server per processor generation, oldest to newest) serves three
SocialNetwork services under bursty MMPP arrivals whose regime dwells
are scaled to the run horizon. Each cell is one (policy, load) cluster
run; shards for different policies at the same load share a derived
seed, so the arrival sequence and request bodies are common random
numbers and the policies differ only in routing.

Expected shape: the state-blind round-robin baseline overloads the
weakest machine during bursts, so every occupancy-driven policy beats
it on fleet P99, with the gap growing as the load approaches fleet
saturation (~20K RPS/service per average machine). ``accel-aware``
(global minimum over local pressure + LdB occupancy) and
``power-of-two`` (two random probes of the same pressure signal) track
each other closely; ``least-outstanding`` trails them because the
client-side outstanding counter is washed out by remote waits.
"""

from __future__ import annotations

from typing import Dict, List

from ..cluster import POLICY_ORDER, ClusterConfig, run_cluster
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pct_reduction, pick_service, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "LOADS_RPS", "SERVICES", "GENERATIONS", "MACHINES"]

#: Cluster-wide per-service offered load (RPS).
LOADS_RPS = [60000.0, 70000.0, 80000.0]

#: The three services the fleet serves (one accel-light, two with
#: heavy payloads and remote waits).
SERVICES = ("UniqId", "StoreP", "Login")

#: Processor generation of machine i — a deliberately skewed fleet.
GENERATIONS = ("haswell", "skylake", "emerald-rapids")

#: Fleet size (fixed for every policy and load).
MACHINES = 3


def _services():
    all_services = social_network_services()
    return [pick_service(all_services, name) for name in SERVICES]


def make_shards(scale: str = "quick", seed: int = 0, policies=None) -> List[Shard]:
    policies = policies or POLICY_ORDER
    return [
        # Seed depends on the load only: all policies at one load see
        # the same arrivals and requests (common random numbers).
        Shard((policy, load), {"policy": policy, "load_rps": load},
              derive_seed(seed, "fig_cluster", load))
        for policy in policies
        for load in LOADS_RPS
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, float]:
    """Fleet-wide latency stats for one (policy, load) cell."""
    config = ClusterConfig(
        policy=shard.params["policy"],
        machines=MACHINES,
        generations=GENERATIONS,
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="mmpp",
        rate_rps=shard.params["load_rps"],
    )
    result = run_cluster(_services(), config)
    return {
        "p99_ns": result.p99_ns(),
        "mean_ns": result.mean_ns(),
        "completed": float(result.completed),
        "censored": float(result.total_censored()),
    }


def merge(payloads: Dict, scale: str, seed: int, policies=None) -> Dict:
    policies = policies or POLICY_ORDER
    p99: Dict[str, Dict[float, float]] = {
        policy: {load: payloads[(policy, load)]["p99_ns"] for load in LOADS_RPS}
        for policy in policies
    }

    rows = []
    for policy in policies:
        rows.append([policy] + [p99[policy][load] / 1000.0 for load in LOADS_RPS])
    table = format_table(
        ["Policy"] + [f"{load / 1000:g}K RPS" for load in LOADS_RPS],
        rows,
        title=(
            "Cluster: fleet P99 (us) by balancing policy vs per-service load\n"
            f"({MACHINES} machines: {', '.join(GENERATIONS)}; MMPP bursts)"
        ),
    )
    from ..analysis import series_chart

    table += "\n\n" + series_chart(
        {policy: [p99[policy][load] / 1000.0 for load in LOADS_RPS]
         for policy in policies},
        x_labels=[f"{load / 1000:g}K" for load in LOADS_RPS],
        title="Fleet P99 (us) vs load",
    )
    gains: Dict[str, Dict[float, float]] = {}
    if "round-robin" in p99:
        for policy in policies:
            if policy == "round-robin":
                continue
            gains[policy] = {
                load: pct_reduction(p99["round-robin"][load], p99[policy][load])
                for load in LOADS_RPS
            }
            table += f"\n\n{policy} P99 reduction over round-robin: " + ", ".join(
                f"{load / 1000:g}K={gain:.1f}%"
                for load, gain in gains[policy].items()
            )
    return {"p99_ns": p99, "gains_vs_round_robin": gains, "table": table}


SHARDED = ShardedExperiment(
    "fig_cluster", make_shards, run_shard, merge,
    claim=(
        "(beyond paper) fleet of AccelFlow servers: "
        "occupancy-aware balancing beats round-robin on P99 under MMPP "
        "bursts, gap widening toward saturation"
    ),
)
run = SHARDED.run
