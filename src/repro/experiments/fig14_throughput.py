"""Figure 14: maximum throughput under the SLO.

Per service, the highest load whose P99 stays within the SLO (5x the
unloaded latency on that architecture, after [15], [58]), including the
Ideal system. The paper reports AccelFlow at 8.3x Non-acc, 2.2x RELIEF,
within 8% of Ideal, and an extra 1.6x from deadline-aware (EDF)
scheduling (Section IV-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hw import QueuePolicy
from ..server import max_throughput_search, run_unloaded
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pick_service, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run"]

DEFAULT_ARCHITECTURES = ["non-acc", "cpu-centric", "relief", "cohort",
                         "accelflow", "ideal"]
#: Services used at the quick scale (the cheapest to probe).
QUICK_SERVICES = ["UniqId", "StoreP", "CUrls"]
#: Service mix for the deadline-aware (EDF) scheduling study: a short
#: latency-critical service colocated with heavy ones, so that deadline
#: priority actually has something to reorder.
EDF_MIX = ["UniqId", "CPost", "StoreP"]


def _iterations(scale: str) -> int:
    return {"smoke": 3, "quick": 5, "full": 7}.get(scale, 5)


def _fig14_services(scale: str):
    services = social_network_services()
    if scale != "full":
        services = [s for s in services if s.name in QUICK_SERVICES]
    return services


def _edf_mixed_gain(scale: str, seed: int, iterations: int) -> float:
    """Throughput gain from deadline-priority scheduling (Section IV-C).

    Colocates the EDF service mix and binary-searches, per queue policy,
    the largest load multiplier at which *every* service still meets its
    SLO (5x unloaded). The gain is the EDF/FIFO ratio of those maxima.
    """
    from ..server import RunConfig, run_experiment

    services = [
        s for s in social_network_services() if s.name in EDF_MIX
    ]
    refs = {
        spec.name: run_unloaded("accelflow", spec, requests=10, seed=seed).mean_ns()
        for spec in services
    }
    probe_requests = max(150, requests_for(scale))

    def violates(rate_scale: float, policy: str) -> bool:
        config = RunConfig(
            architecture="accelflow",
            requests_per_service=probe_requests,
            seed=seed,
            arrival_mode="poisson",
            rate_scale=rate_scale,
            colocated=True,
            queue_policy=policy,
            unloaded_reference_ns=refs,
        )
        result = run_experiment(services, config)
        if result.total_censored() > 0:
            return True
        return any(
            result.p99_ns(spec.name) > 5.0 * refs[spec.name] for spec in services
        )

    def max_scale(policy: str) -> float:
        lo, hi = 0.5, 8.0
        if violates(lo, policy):
            return lo
        for _ in range(iterations):
            mid = (lo + hi) / 2.0
            if violates(mid, policy):
                hi = mid
            else:
                lo = mid
        return lo

    fifo = max_scale(QueuePolicy.FIFO)
    edf = max_scale(QueuePolicy.EDF)
    return edf / fifo if fifo > 0 else 1.0


def make_shards(
    scale: str = "quick",
    seed: int = 0,
    architectures: Optional[List[str]] = None,
    include_edf: bool = True,
) -> List[Shard]:
    architectures = architectures or DEFAULT_ARCHITECTURES
    shards = [
        Shard((arch, spec.name),
              {"architecture": arch, "service": spec.name},
              derive_seed(seed, "fig14", spec.name))
        for arch in architectures
        for spec in _fig14_services(scale)
    ]
    if include_edf and "accelflow" in architectures:
        shards.append(
            Shard(("edf",), {"edf": True},
                  derive_seed(seed, "fig14", "edf"))
        )
    return shards


def run_shard(shard: Shard, scale: str):
    """One SLO-bounded throughput search (or the EDF colocation study)."""
    iterations = _iterations(scale)
    if shard.params.get("edf"):
        return _edf_mixed_gain(scale, shard.seed, iterations)
    requests = requests_for(scale)
    arch = shard.params["architecture"]
    spec = pick_service(social_network_services(), shard.params["service"])
    unloaded = run_unloaded(arch, spec, requests=12, seed=shard.seed).mean_ns()
    slo_ns = 5.0 * unloaded
    throughput = max_throughput_search(
        arch,
        spec,
        slo_ns=slo_ns,
        requests=max(120, requests // 2),
        seed=shard.seed,
        iterations=iterations,
        probe_cap=max(400, requests * 2),
    )
    return {"slo_ns": slo_ns, "throughput_rps": throughput}


def merge(
    payloads: Dict,
    scale: str,
    seed: int,
    architectures: Optional[List[str]] = None,
    include_edf: bool = True,
) -> Dict:
    architectures = architectures or DEFAULT_ARCHITECTURES
    services = _fig14_services(scale)
    throughput: Dict[str, Dict[str, float]] = {a: {} for a in architectures}
    slo: Dict[str, Dict[str, float]] = {a: {} for a in architectures}
    for arch in architectures:
        for spec in services:
            cell = payloads[(arch, spec.name)]
            slo[arch][spec.name] = cell["slo_ns"]
            throughput[arch][spec.name] = cell["throughput_rps"]
    edf_gain = payloads.get(("edf",))

    rows = []
    for spec in services:
        rows.append(
            [spec.name]
            + [throughput[arch][spec.name] / 1000.0 for arch in architectures]
        )
    means = {
        arch: sum(throughput[arch].values()) / len(services)
        for arch in architectures
    }
    rows.append(["MEAN"] + [means[arch] / 1000.0 for arch in architectures])
    table = format_table(
        ["Service"] + architectures,
        rows,
        title="Fig 14: max throughput under SLO (kRPS)",
    )
    ratios = {}
    if "accelflow" in means:
        for arch in architectures:
            if arch != "accelflow" and means[arch] > 0:
                ratios[arch] = means["accelflow"] / means[arch]
        paper = {"non-acc": 8.3, "relief": 2.2}
        table += "\n\nAccelFlow throughput ratios: " + ", ".join(
            f"{arch}={ratio:.2f}x" + (f" (paper {paper[arch]}x)" if arch in paper else "")
            for arch, ratio in ratios.items()
        )
        if "ideal" in means and means["ideal"] > 0:
            gap = 100.0 * (1 - means["accelflow"] / means["ideal"])
            table += f"\nAccelFlow within {signed_pct(gap)} of Ideal (paper: 8.0%)"
    if edf_gain is not None:
        table += f"\nEDF scheduling throughput gain: {edf_gain:.2f}x (paper: 1.6x)"
    return {
        "throughput_rps": throughput,
        "means_rps": means,
        "slo_ns": slo,
        "ratios": ratios,
        "edf_gain": edf_gain,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig14", make_shards, run_shard, merge,
    claim=(
        "Max throughput: 8.3x Non-acc, 2.2x RELIEF, within 8% of Ideal; "
        "EDF +1.6x"
    ),
)
run = SHARDED.run
