"""Figure 15: coarse-grained image-processing / RNN applications.

The paper validates AccelFlow on the gem5-based simulator released with
RELIEF, running its image/RNN benchmark suite; AccelFlow achieves 1.8x
RELIEF's maximum throughput on average. Substituted here with the
coarse-accelerator suite of :mod:`repro.workloads.relief_suite` (see
DESIGN.md): branch-free chains of tens-of-microsecond kernels over
single-instance accelerators, where RELIEF pays a manager round trip
and through-memory data staging on every hand-off while AccelFlow
chains directly. Maximum throughput is SLO-bounded (5x unloaded), as in
Figure 14.
"""

from __future__ import annotations

from typing import Dict, List

from ..server import max_throughput_search, run_unloaded
from ..sim import derive_seed
from ..workloads import (
    coarse_machine_params,
    relief_suite_registry,
    relief_suite_services,
)
from .common import format_table, pick_service, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run"]

ARCHITECTURES = ["relief", "accelflow"]


def _apps(scale: str):
    apps = relief_suite_services()
    if scale == "smoke":
        apps = apps[:4]
    return apps


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        Shard((arch, spec.name),
              {"architecture": arch, "app": spec.name},
              derive_seed(seed, "fig15", spec.name))
        for arch in ARCHITECTURES
        for spec in _apps(scale)
    ]


def run_shard(shard: Shard, scale: str) -> float:
    """SLO-bounded max throughput (RPS) for one (arch, app) cell."""
    requests = max(100, requests_for(scale) // 2)
    iterations = {"smoke": 4, "quick": 5, "full": 7}.get(scale, 5)
    registry = relief_suite_registry()
    params = coarse_machine_params()
    arch = shard.params["architecture"]
    spec = pick_service(relief_suite_services(), shard.params["app"])
    unloaded = run_unloaded(
        arch, spec, requests=10, seed=shard.seed,
        machine_params=params, registry=registry,
    ).mean_ns()
    return max_throughput_search(
        arch,
        spec,
        slo_ns=5.0 * unloaded,
        requests=requests,
        seed=shard.seed,
        iterations=iterations,
        machine_params=params,
        registry=registry,
        probe_cap=max(400, requests * 2),
    )


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    apps = _apps(scale)
    throughput: Dict[str, Dict[str, float]] = {
        arch: {spec.name: payloads[(arch, spec.name)] for spec in apps}
        for arch in ARCHITECTURES
    }

    rows = []
    speedups = {}
    for spec in apps:
        relief_tput = throughput["relief"][spec.name]
        accelflow_tput = throughput["accelflow"][spec.name]
        speedup = accelflow_tput / relief_tput if relief_tput > 0 else 0.0
        speedups[spec.name] = speedup
        rows.append(
            [spec.name, relief_tput, accelflow_tput, f"{speedup:.2f}x"]
        )
    mean_speedup = sum(speedups.values()) / len(speedups)
    rows.append(["MEAN", "", "", f"{mean_speedup:.2f}x"])
    table = format_table(
        ["Application", "RELIEF (RPS)", "AccelFlow (RPS)", "Speedup"],
        rows,
        title="Fig 15: max throughput, coarse image/RNN apps (paper mean: 1.8x)",
    )
    return {
        "throughput_rps": throughput,
        "speedups": speedups,
        "mean_speedup": mean_speedup,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig15", make_shards, run_shard, merge,
    claim="Coarse image/RNN apps: AccelFlow 1.8x RELIEF max throughput",
)
run = SHARDED.run
