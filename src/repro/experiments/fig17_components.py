"""Figure 17: components of a service's execution time under AccelFlow.

Unloaded runs (one request at a time) decomposed into CPU, accelerator
compute, orchestration (dispatcher) and communication time. The paper:
accelerator time dominates and orchestration averages only 2.2% (vs
~10% for RELIEF). Remote-dependency waits are reported separately
(they are not part of the on-server execution the paper decomposes).
"""

from __future__ import annotations

from typing import Dict, List

from ..server import run_unloaded
from ..sim import derive_seed
from ..workloads import Buckets, social_network_services
from .common import format_table, pick_service
from .parallel import Shard, ShardedExperiment

__all__ = ["run"]

_FIG17_BUCKETS = (
    Buckets.CPU,
    Buckets.ACCEL,
    Buckets.ORCHESTRATION,
    Buckets.COMMUNICATION,
    Buckets.QUEUE,
)


def make_shards(
    scale: str = "quick", seed: int = 0, architecture: str = "accelflow"
) -> List[Shard]:
    return [
        Shard((spec.name,),
              {"service": spec.name, "architecture": architecture},
              derive_seed(seed, "fig17", spec.name))
        for spec in social_network_services()
    ]


def run_shard(shard: Shard, scale: str) -> Dict:
    """Component sums of one unloaded per-service run."""
    spec = pick_service(social_network_services(), shard.params["service"])
    result = run_unloaded(
        shard.params["architecture"], spec, requests=15, seed=shard.seed
    )
    return dict(result.component_sums)


def merge(
    payloads: Dict, scale: str, seed: int, architecture: str = "accelflow"
) -> Dict:
    services = social_network_services()
    rows = []
    data = {}
    orchestration_fractions = []
    for spec in services:
        sums = payloads[(spec.name,)]
        on_server = sum(sums[b] for b in _FIG17_BUCKETS)
        fractions = {
            b: (sums[b] / on_server if on_server > 0 else 0.0)
            for b in _FIG17_BUCKETS
        }
        data[spec.name] = {
            "fractions": fractions,
            "remote_ns": sums[Buckets.REMOTE],
        }
        orchestration_fractions.append(fractions[Buckets.ORCHESTRATION])
        rows.append(
            [
                spec.name,
                f"{fractions[Buckets.CPU] * 100:.1f}%",
                f"{fractions[Buckets.ACCEL] * 100:.1f}%",
                f"{fractions[Buckets.ORCHESTRATION] * 100:.1f}%",
                f"{fractions[Buckets.COMMUNICATION] * 100:.1f}%",
                f"{fractions[Buckets.QUEUE] * 100:.1f}%",
            ]
        )
    mean_orchestration = sum(orchestration_fractions) / len(orchestration_fractions)
    table = format_table(
        ["Service", "CPU", "Accelerators", "Orchestration", "Communication",
         "Queueing"],
        rows,
        title=f"Fig 17: execution-time components ({architecture})",
    )
    table += (
        f"\n\nMean orchestration fraction: {mean_orchestration * 100:.1f}% "
        "(paper: 2.2% for AccelFlow, ~10% for RELIEF)"
    )
    return {
        "services": data,
        "mean_orchestration_fraction": mean_orchestration,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig17", make_shards, run_shard, merge,
    claim="Accelerator time dominates; orchestration only 2.2% (RELIEF ~10%)",
)
run = SHARDED.run
