"""Figure 20: tail latency across processor generations.

Non-acc, RELIEF and AccelFlow on Haswell / Skylake / Ice Lake /
Sapphire Rapids / Emerald Rapids core models. Newer cores speed
AppLogic more than tax, so the relative advantage of AccelFlow *grows*
with newer CPUs: the paper's AccelFlow-over-RELIEF P99 reduction rises
from 68.8% (Ice Lake) to 71.7% (Emerald Rapids).
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineParams
from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pct_reduction, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "GENERATIONS", "ARCHITECTURES"]

GENERATIONS = ["haswell", "skylake", "icelake", "sapphire-rapids", "emerald-rapids"]
ARCHITECTURES = ["non-acc", "relief", "accelflow"]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    # One derived seed for the whole grid: every (generation, arch)
    # cell replays the same workload.
    return [
        Shard("fig20", (generation, arch),
              {"generation": generation, "architecture": arch},
              derive_seed(seed, "fig20"))
        for generation in GENERATIONS
        for arch in ARCHITECTURES
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """Mean P99 (ns) for one (generation, architecture) cell."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        machine_params=MachineParams().with_generation(
            shard.params["generation"]
        ),
    )
    return run_experiment(social_network_services(), config).mean_p99_ns()


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99: Dict[str, Dict[str, float]] = {
        arch: {gen: payloads[(gen, arch)] for gen in GENERATIONS}
        for arch in ARCHITECTURES
    }

    rows = []
    for arch in ARCHITECTURES:
        rows.append(
            [arch] + [p99[arch][gen] / 1000.0 for gen in GENERATIONS]
        )
    reductions = {
        gen: pct_reduction(p99["relief"][gen], p99["accelflow"][gen])
        for gen in GENERATIONS
    }
    rows.append(
        ["AccelFlow vs RELIEF"]
        + [signed_pct(-reductions[gen]) for gen in GENERATIONS]
    )
    table = format_table(
        ["Architecture"] + GENERATIONS,
        rows,
        title="Fig 20: mean P99 (us) across processor generations "
              "(paper: reduction grows 68.8% -> 71.7%)",
    )
    return {"p99_ns": p99, "reductions_vs_relief": reductions, "table": table}


SHARDED = ShardedExperiment("fig20", make_shards, run_shard, merge)


def run(scale: str = "quick", seed: int = 0, executor=None) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED.run(scale=scale, seed=seed, executor=executor)
