"""Figure 11: P99 tail and average latency under production-like load.

Five architectures x eight SocialNetwork services driven by the
Alibaba-trace-like arrival model (average 13.4K RPS per service).
The paper's headline: AccelFlow shortest tail in every service,
followed by RELIEF/Cohort, then CPU-Centric, then Non-acc; average
reductions 90.7% / 81.2% / 68.8% / 70.1% (P99) and 77.2% / 53.9% /
40.7% / 37.9% (mean).
"""

from __future__ import annotations

from typing import Dict, List

from ..server import RunConfig, combine_dedicated, run_dedicated_service
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import (
    MAIN_ARCHITECTURES,
    format_table,
    pct_reduction,
    pick_service,
    requests_for,
    signed_pct,
)
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "PAPER_P99_REDUCTIONS", "PAPER_MEAN_REDUCTIONS"]

PAPER_P99_REDUCTIONS = {
    "non-acc": 90.7,
    "cpu-centric": 81.2,
    "relief": 68.8,
    "cohort": 70.1,
}
PAPER_MEAN_REDUCTIONS = {
    "non-acc": 77.2,
    "cpu-centric": 53.9,
    "relief": 40.7,
    "cohort": 37.9,
}


def make_shards(scale: str = "quick", seed: int = 0, architectures=None) -> List[Shard]:
    architectures = architectures or MAIN_ARCHITECTURES
    # Architectures measuring the same service share a derived seed
    # (common random numbers across the comparison axis).
    return [
        Shard("fig11", (arch, spec.name),
              {"architecture": arch, "service": spec.name},
              derive_seed(seed, "fig11", spec.name))
        for arch in architectures
        for spec in social_network_services()
    ]


def run_shard(shard: Shard, scale: str) -> Dict:
    """One dedicated-mode (architecture, service) measurement cell."""
    spec = pick_service(social_network_services(), shard.params["service"])
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
    )
    return run_dedicated_service(spec, config)


def merge(payloads: Dict, scale: str, seed: int, architectures=None) -> Dict:
    architectures = architectures or MAIN_ARCHITECTURES
    services = social_network_services()
    results = {
        arch: combine_dedicated(
            arch, {spec.name: payloads[(arch, spec.name)] for spec in services}
        )
        for arch in architectures
    }

    rows = []
    for spec in services:
        row = [spec.name]
        for arch in architectures:
            row.append(results[arch].p99_ns(spec.name) / 1000.0)
        rows.append(row)
    mean_row = ["MEAN-P99"]
    for arch in architectures:
        mean_row.append(results[arch].mean_p99_ns() / 1000.0)
    rows.append(mean_row)
    avg_row = ["MEAN-AVG"]
    for arch in architectures:
        avg_row.append(results[arch].mean_latency_ns() / 1000.0)
    rows.append(avg_row)
    table = format_table(
        ["Service"] + list(architectures),
        rows,
        title="Fig 11: P99 tail latency (us) per service and architecture",
    )
    from ..analysis import bar_chart

    table += "\n\n" + bar_chart(
        {arch: results[arch].mean_p99_ns() / 1000.0 for arch in architectures},
        title="mean P99 (us)",
        unit=" us",
    )

    reductions = {}
    if "accelflow" in results:
        accelflow = results["accelflow"]
        for arch in architectures:
            if arch == "accelflow":
                continue
            reductions[arch] = {
                "p99": pct_reduction(
                    results[arch].mean_p99_ns(), accelflow.mean_p99_ns()
                ),
                "mean": pct_reduction(
                    results[arch].mean_latency_ns(), accelflow.mean_latency_ns()
                ),
                "paper_p99": PAPER_P99_REDUCTIONS.get(arch),
                "paper_mean": PAPER_MEAN_REDUCTIONS.get(arch),
            }

        def paper(reduction):
            return "n/a" if reduction is None else signed_pct(-reduction)

        summary_rows = [
            [arch, signed_pct(-r["p99"]), paper(r["paper_p99"]),
             signed_pct(-r["mean"]), paper(r["paper_mean"])]
            for arch, r in reductions.items()
        ]
        table += "\n\n" + format_table(
            ["AccelFlow vs", "P99", "paper P99", "mean", "paper mean"],
            summary_rows,
            title="AccelFlow latency reductions",
        )
    return {
        "results": results,
        "reductions": reductions,
        "table": table,
    }


SHARDED = ShardedExperiment("fig11", make_shards, run_shard, merge)


def run(scale: str = "quick", seed: int = 0, architectures=None, executor=None) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED.run(
        scale=scale, seed=seed, executor=executor, architectures=architectures
    )
