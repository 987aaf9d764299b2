"""Figure 18: P99 tail latency vs. chiplet organization.

AccelFlow with the accelerators packed into 1/2/3/4/6 chiplets (Section
VII.C.1 layouts). More chiplets mean more inter-chiplet crossings per
trace; the paper measures +14% average tail latency from 2 to 6
chiplets.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineParams
from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pct_reduction, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "CHIPLET_COUNTS"]

CHIPLET_COUNTS = [1, 2, 3, 4, 6]


def make_shards(
    scale: str = "quick", seed: int = 0, architecture: str = "accelflow"
) -> List[Shard]:
    # Layouts share one derived seed: the sweep varies only the hardware.
    return [
        Shard((chiplets,),
              {"chiplets": chiplets, "architecture": architecture},
              derive_seed(seed, "fig18"))
        for chiplets in CHIPLET_COUNTS
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """Mean P99 (ns) for one chiplet layout."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        machine_params=MachineParams().with_layout(shard.params["chiplets"]),
    )
    return run_experiment(social_network_services(), config).mean_p99_ns()


def merge(
    payloads: Dict, scale: str, seed: int, architecture: str = "accelflow"
) -> Dict:
    p99 = {chiplets: payloads[(chiplets,)] for chiplets in CHIPLET_COUNTS}

    rows = [
        [f"{chiplets}-chiplet", p99[chiplets] / 1000.0,
         signed_pct(-pct_reduction(p99[2], p99[chiplets]))]
        for chiplets in CHIPLET_COUNTS
    ]
    table = format_table(
        ["Organization", "mean P99 (us)", "vs 2-chiplet"],
        rows,
        title="Fig 18: tail latency vs chiplet organization "
              "(paper: 2->6 chiplets +14%)",
    )
    increase_2_to_6 = -pct_reduction(p99[2], p99[6])
    return {"p99_ns": p99, "increase_2_to_6_pct": increase_2_to_6, "table": table}


SHARDED = ShardedExperiment(
    "fig18", make_shards, run_shard, merge,
    claim="Tail latency rises with chiplet count: 2 -> 6 chiplets +14%",
)
run = SHARDED.run
