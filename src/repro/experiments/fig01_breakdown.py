"""Figure 1: execution-time breakdown of SocialNetwork services.

The paper profiles each service on a Xeon server and splits its time
into AppLogic and the six tax categories; bars are normalized and the
absolute execution times sit on top. Here the breakdown comes from the
calibrated service models, cross-checked against a measured software-
only (Non-acc) run whose CPU time must match the configured totals.
"""

from __future__ import annotations

from typing import Dict, List

from ..server import run_unloaded
from ..sim import derive_seed
from ..workloads import TaxCategory, social_network_services
from .common import format_table, pick_service
from .parallel import Shard, ShardedExperiment

__all__ = ["run"]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        Shard((spec.name,), {"service": spec.name},
              derive_seed(seed, "fig1", spec.name))
        for spec in social_network_services()
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """Measured software-only mean latency (us) for one service."""
    spec = pick_service(social_network_services(), shard.params["service"])
    measured = run_unloaded("non-acc", spec, requests=10, seed=shard.seed)
    return measured.mean_ns() / 1000.0


def _mean(values: List[float]) -> float:
    """Mean of ``values``, added left to right in a plain loop.

    CPython 3.12 made float ``sum()`` compensated, so ``sum()`` would
    round these averages differently across interpreters (the (De)Ser
    average reads 0.2425 on 3.11 and 0.24250000000000002 on 3.12, and
    prints 24.2% or 24.3%). The loop gives the same bits everywhere.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    services = social_network_services()
    rows = []
    data = {}
    for spec in services:
        fractions = {c: spec.fractions[c] for c in TaxCategory.ALL}
        data[spec.name] = {
            "total_us": spec.total_time_ns / 1000.0,
            "fractions": fractions,
            "measured_mean_us": payloads[(spec.name,)],
        }
        rows.append(
            [
                spec.name,
                spec.total_time_ns / 1000.0,
                f"{fractions[TaxCategory.APP_LOGIC] * 100:.1f}%",
                f"{fractions[TaxCategory.TCP] * 100:.1f}%",
                f"{fractions[TaxCategory.ENCRYPTION] * 100:.1f}%",
                f"{fractions[TaxCategory.RPC] * 100:.1f}%",
                f"{fractions[TaxCategory.SERIALIZATION] * 100:.1f}%",
                f"{fractions[TaxCategory.COMPRESSION] * 100:.1f}%",
                f"{fractions[TaxCategory.LOAD_BALANCING] * 100:.1f}%",
            ]
        )
    averages = {
        c: _mean([d["fractions"][c] for d in data.values()])
        for c in TaxCategory.ALL
    }
    rows.append(
        ["Average", _mean([d["total_us"] for d in data.values()])]
        + [f"{averages[c] * 100:.1f}%" for c in TaxCategory.ALL]
    )
    table = format_table(
        ["Service", "Time(us)", "AppLogic", "TCP", "(De)Encr", "RPC",
         "(De)Ser", "(De)Cmp", "LdB"],
        rows,
        title="Fig 1: Execution-time breakdown of SocialNetwork services",
    )
    return {"services": data, "averages": averages, "table": table}


SHARDED = ShardedExperiment(
    "fig1", make_shards, run_shard, merge,
    claim="Services spend ~79% of time on datacenter tax (AppLogic 20.7% avg)",
)
run = SHARDED.run
