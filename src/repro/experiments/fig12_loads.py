"""Figure 12: P99 tail latency under 5K/10K/15K RPS Poisson loads.

DeathStarBench applications (SocialNetwork plus HotelReservation and
MediaServices) at three uniform per-service loads. The paper's shape:
AccelFlow wins at every load and its advantage grows with load (tail
reduction over RELIEF: 55.1% / 60.9% / 68.3% at 5/10/15K RPS).
"""

from __future__ import annotations

from typing import Dict, List

from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import (
    hotel_reservation_services,
    media_services,
    social_network_services,
)
from .common import MAIN_ARCHITECTURES, format_table, pct_reduction, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "LOADS_RPS"]

LOADS_RPS = [5000.0, 10000.0, 15000.0]


def _services(include_extra_suites: bool):
    services = social_network_services()
    if include_extra_suites:
        services = services + hotel_reservation_services() + media_services()
    return services


def make_shards(
    scale: str = "quick",
    seed: int = 0,
    include_extra_suites: bool = True,
    architectures=None,
) -> List[Shard]:
    architectures = architectures or MAIN_ARCHITECTURES
    return [
        Shard((arch, load),
              {"architecture": arch, "load_rps": load,
               "extra_suites": include_extra_suites},
              derive_seed(seed, "fig12", load))
        for arch in architectures
        for load in LOADS_RPS
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """Mean P99 (ns) for one (architecture, load) cell."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="poisson",
        rate_rps=shard.params["load_rps"],
    )
    result = run_experiment(_services(shard.params["extra_suites"]), config)
    return result.mean_p99_ns()


def merge(
    payloads: Dict,
    scale: str,
    seed: int,
    include_extra_suites: bool = True,
    architectures=None,
) -> Dict:
    architectures = architectures or MAIN_ARCHITECTURES
    data: Dict[str, Dict[float, float]] = {
        arch: {load: payloads[(arch, load)] for load in LOADS_RPS}
        for arch in architectures
    }

    rows = []
    for arch in architectures:
        rows.append([arch] + [data[arch][load] / 1000.0 for load in LOADS_RPS])
    table = format_table(
        ["Architecture"] + [f"{load / 1000:g}K RPS" for load in LOADS_RPS],
        rows,
        title="Fig 12: mean P99 tail latency (us) vs load",
    )
    from ..analysis import series_chart

    table += "\n\n" + series_chart(
        {arch: [data[arch][load] / 1000.0 for load in LOADS_RPS]
         for arch in architectures},
        x_labels=[f"{load / 1000:g}K" for load in LOADS_RPS],
        title="P99 (us) vs load",
    )
    gains_vs_relief = {}
    if "accelflow" in data and "relief" in data:
        gains_vs_relief = {
            load: pct_reduction(data["relief"][load], data["accelflow"][load])
            for load in LOADS_RPS
        }
        table += "\n\nAccelFlow P99 reduction over RELIEF: " + ", ".join(
            f"{load / 1000:g}K={gain:.1f}%" for load, gain in gains_vs_relief.items()
        ) + "  (paper: 5K=55.1%, 10K=60.9%, 15K=68.3%)"
    return {"p99_ns": data, "gains_vs_relief": gains_vs_relief, "table": table}


SHARDED = ShardedExperiment(
    "fig12", make_shards, run_shard, merge,
    claim=(
        "AccelFlow P99 reduction over RELIEF grows with load: "
        "55.1/60.9/68.3% at 5/10/15K RPS"
    ),
)
run = SHARDED.run
