"""Figure 19: P99 tail latency vs. PEs per accelerator.

AccelFlow with 2/4/8 PEs per accelerator. Fewer PEs force CPU fallback
(full queues + overflow); the paper measures +20.0% / +35.7% tail
latency with 4 / 2 PEs and rising fallback rates (up to 39% of Encr
requests with 2 PEs).
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineParams
from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pct_reduction, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "PE_COUNTS"]

PE_COUNTS = [2, 4, 8]


def make_shards(
    scale: str = "quick", seed: int = 0, architecture: str = "accelflow"
) -> List[Shard]:
    return [
        Shard("fig19", (pes,), {"pes": pes, "architecture": architecture},
              derive_seed(seed, "fig19"))
        for pes in PE_COUNTS
    ]


def run_shard(shard: Shard, scale: str) -> Dict:
    """Mean P99 and fallback fraction for one PE provisioning."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        machine_params=MachineParams().with_pes(shard.params["pes"]),
    )
    result = run_experiment(social_network_services(), config)
    total = result.total_completed()
    fell_back = sum(s.fallback_requests for s in result.services.values())
    return {
        "mean_p99_ns": result.mean_p99_ns(),
        "fallback_fraction": fell_back / total if total else 0.0,
    }


def merge(
    payloads: Dict, scale: str, seed: int, architecture: str = "accelflow"
) -> Dict:
    p99 = {pes: payloads[(pes,)]["mean_p99_ns"] for pes in PE_COUNTS}
    fallback_fraction = {
        pes: payloads[(pes,)]["fallback_fraction"] for pes in PE_COUNTS
    }

    rows = [
        [
            f"{pes} PEs",
            p99[pes] / 1000.0,
            signed_pct(-pct_reduction(p99[8], p99[pes])),
            f"{fallback_fraction[pes] * 100:.1f}%",
        ]
        for pes in PE_COUNTS
    ]
    table = format_table(
        ["Config", "mean P99 (us)", "vs 8 PEs", "fallback requests"],
        rows,
        title="Fig 19: tail latency vs PEs per accelerator "
              "(paper: 4 PEs +20.0%, 2 PEs +35.7%)",
    )
    return {
        "p99_ns": p99,
        "fallback_fraction": fallback_fraction,
        "increase_4_pct": -pct_reduction(p99[8], p99[4]),
        "increase_2_pct": -pct_reduction(p99[8], p99[2]),
        "table": table,
    }


SHARDED = ShardedExperiment("fig19", make_shards, run_shard, merge)


def run(
    scale: str = "quick",
    seed: int = 0,
    architecture: str = "accelflow",
    executor=None,
) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED.run(
        scale=scale, seed=seed, executor=executor, architecture=architecture
    )
