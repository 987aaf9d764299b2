"""Figure 16: serverless functions under Azure-like traces.

FunctionBench-style functions colocated on one server, driven by the
spiky Azure arrival model. The paper reports per-function P99 for
Non-acc, RELIEF and AccelFlow, with AccelFlow reducing P99 by 37% over
RELIEF on average — the largest wins on short functions like ImgRot.
"""

from __future__ import annotations

from typing import Dict, List

from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import serverless_functions
from .common import format_table, pct_reduction, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "ARCHITECTURES"]

ARCHITECTURES = ["non-acc", "relief", "accelflow"]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    # Colocated runs cannot split per function (they share one server);
    # one shard per architecture, all replaying the same arrivals.
    return [
        Shard((arch,), {"architecture": arch},
              derive_seed(seed, "fig16"))
        for arch in ARCHITECTURES
    ]


def run_shard(shard: Shard, scale: str):
    """One colocated serverless run; the full result ships back."""
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="azure",
        colocated=True,
    )
    return run_experiment(serverless_functions(), config)


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    functions = serverless_functions()
    results = {arch: payloads[(arch,)] for arch in ARCHITECTURES}

    rows = []
    for spec in functions:
        rows.append(
            [spec.name]
            + [results[arch].p99_ns(spec.name) / 1000.0 for arch in ARCHITECTURES]
        )
    rows.append(
        ["MEAN"] + [results[arch].mean_p99_ns() / 1000.0 for arch in ARCHITECTURES]
    )
    reduction = pct_reduction(
        results["relief"].mean_p99_ns(), results["accelflow"].mean_p99_ns()
    )
    table = format_table(
        ["Function"] + ARCHITECTURES,
        rows,
        title="Fig 16: serverless P99 tail latency (us)",
    )
    table += (
        f"\n\nAccelFlow P99 reduction over RELIEF: {reduction:.1f}% (paper: 37%)"
    )
    return {"results": results, "reduction_vs_relief": reduction, "table": table}


SHARDED = ShardedExperiment(
    "fig16", make_shards, run_shard, merge,
    claim="Serverless P99: AccelFlow -37% vs RELIEF",
)
run = SHARDED.run
