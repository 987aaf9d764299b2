"""Figure 3: orchestration overhead vs. load.

The paper simulates CPU-Centric, HW-Manager (RELIEF) and Direct
orchestration and reports the orchestration overhead as a fraction of
total service execution time, averaged across services, as the load
sweeps up to 15 kRPS. The headline shape: Direct << HW-Manager <
CPU-Centric, with the latter two growing rapidly with load (25% and
15% at 15 kRPS).
"""

from __future__ import annotations

from typing import Dict, List

from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "APPROACHES", "LOADS_KRPS"]

APPROACHES = ["cpu-centric", "relief", "direct"]
LOADS_KRPS = [2.5, 5.0, 10.0, 15.0]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    # All approaches at one load share a derived seed: common random
    # numbers keep the cross-approach comparison tight.
    return [
        Shard((arch, load), {"architecture": arch, "load_krps": load},
              derive_seed(seed, "fig3", load))
        for arch in APPROACHES
        for load in LOADS_KRPS
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """Orchestration fraction for one (approach, load) cell."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="poisson",
        rate_rps=shard.params["load_krps"] * 1000.0,
    )
    result = run_experiment(social_network_services(), config)
    return result.orchestration_fraction()


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    data: Dict[str, Dict[float, float]] = {
        arch: {load: payloads[(arch, load)] for load in LOADS_KRPS}
        for arch in APPROACHES
    }
    rows: List[List[object]] = []
    label = {"cpu-centric": "CPU-Centric", "relief": "HW-Manager", "direct": "Direct"}
    for arch in APPROACHES:
        rows.append(
            [label[arch]]
            + [f"{data[arch][load] * 100:.1f}%" for load in LOADS_KRPS]
        )
    table = format_table(
        ["Approach"] + [f"{load:g} kRPS" for load in LOADS_KRPS],
        rows,
        title="Fig 3: Orchestration overhead fraction vs load",
    )
    return {"fractions": data, "loads_krps": LOADS_KRPS, "table": table}


SHARDED = ShardedExperiment(
    "fig3", make_shards, run_shard, merge,
    claim=(
        "Orchestration overhead at 15 kRPS: CPU-Centric 25%, HW-Manager 15%, "
        "Direct tiny"
    ),
)
run = SHARDED.run
