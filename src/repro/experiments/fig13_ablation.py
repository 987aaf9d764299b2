"""Figure 13: the AccelFlow technique ladder.

Starting from RELIEF (single centralized queue + manager), techniques
are added cumulatively: PerAccTypeQ (a queue per accelerator type),
Direct (traces + direct accelerator-to-accelerator transfers), CntrFlow
(dispatchers resolve branches), and full AccelFlow (dispatchers also
transform data and handle large payloads). The paper's cumulative mean
tail-latency reductions: 6.8% / 32.7% / 55.1% / 68.7%.
"""

from __future__ import annotations

from typing import Dict, List

from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import LADDER, format_table, pct_reduction, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "PAPER_CUMULATIVE_REDUCTIONS"]

PAPER_CUMULATIVE_REDUCTIONS = {
    "per-acc-type-q": 6.8,
    "direct": 32.7,
    "cntrflow": 55.1,
    "accelflow": 68.7,
}


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    # Every rung replays the identical workload (one shared derived
    # seed): the ladder is a controlled experiment on the architecture.
    return [
        Shard((arch,), {"architecture": arch},
              derive_seed(seed, "fig13"))
        for arch in LADDER
    ]


def run_shard(shard: Shard, scale: str) -> Dict:
    """Mean and per-service P99 (ns) for one ladder rung."""
    services = social_network_services()
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
    )
    result = run_experiment(services, config)
    return {
        "mean_p99_ns": result.mean_p99_ns(),
        "per_service_p99_ns": {
            spec.name: result.p99_ns(spec.name) for spec in services
        },
    }


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99 = {arch: payloads[(arch,)]["mean_p99_ns"] for arch in LADDER}
    per_service = {
        arch: payloads[(arch,)]["per_service_p99_ns"] for arch in LADDER
    }

    baseline = p99[LADDER[0]]
    rows = []
    reductions = {}
    for arch in LADDER:
        reduction = pct_reduction(baseline, p99[arch])
        reductions[arch] = reduction
        rows.append(
            [
                arch,
                p99[arch] / 1000.0,
                signed_pct(-reduction),
                signed_pct(-PAPER_CUMULATIVE_REDUCTIONS.get(arch, 0.0)),
            ]
        )
    table = format_table(
        ["Rung", "mean P99 (us)", "vs RELIEF", "paper"],
        rows,
        title="Fig 13: cumulative effect of AccelFlow techniques",
    )
    return {
        "p99_ns": p99,
        "per_service_p99_ns": per_service,
        "reductions": reductions,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig13", make_shards, run_shard, merge,
    claim=(
        "Cumulative ladder reductions: +PerAccTypeQ 6.8%, +Direct 32.7%, "
        "+CntrFlow 55.1%, AccelFlow 68.7%"
    ),
)
run = SHARDED.run
