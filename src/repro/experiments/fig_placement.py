"""Placement study: the five architectures across the five placements.

Beyond-paper experiment: the paper argues for an *on-package* ensemble,
while the related work puts the very same accelerators behind a PCIe
link (RPCAcc), on the SmartNIC (Dagger), beside the LLC (Arcalis), or
across the network as a remote service. This experiment makes that a
measured comparison: every orchestration architecture serves the same
StoreP open-loop Poisson arrival sequence (one seed for the whole grid,
so every cell is common-random-number aligned) while the whole
accelerator ensemble is relocated to each
:class:`~repro.hw.placement.Placement` in turn.

Each cell reports tail/mean latency plus the placement fabric's hop
activity (crossings and bytes over the host link). The headline claim:
for microservice requests built from fine-grained accelerator ops,
keeping the ensemble on-package beats the PCIe/NIC/remote
disaggregation points on P99 latency under *every* orchestration
architecture — orchestration cleverness does not buy back the hop tax.
``non-acc`` never touches an accelerator, so it must come out
placement-invariant (a built-in control: if it moves, the fabric is
leaking cost into non-accelerator paths).
"""

from __future__ import annotations

from typing import Dict, List

from ..hw.params import MachineParams
from ..hw.placement import PLACEMENTS
from ..server.driver import RunConfig, run_dedicated_service
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import MAIN_ARCHITECTURES, format_table, pick_service, requests_for
from .parallel import Shard, ShardedExperiment

__all__ = ["run", "SERVICE", "RATE_RPS", "PLACEMENT_ORDER", "CLAIM_PLACEMENTS"]

#: The measured service (heavy accelerator path: the hop tax bites).
SERVICE = "StoreP"

#: Offered load (RPS): matches fig_faults — busy but unsaturated, so
#: latency differences come from transfer paths, not queue collapse.
RATE_RPS = 2000.0

#: Render order: the package first, then increasingly distant sites.
PLACEMENT_ORDER = [p.value for p in PLACEMENTS]

#: The disaggregation points the headline claim compares against
#: (near_cache is reported but not claimed: it is close enough that
#: queueing noise can reorder it by microseconds).
CLAIM_PLACEMENTS = ["pcie", "nic", "remote"]

#: Architectures that actually use accelerators (the claim set);
#: ``non-acc`` is the placement-invariance control.
ACCELERATED = [a for a in MAIN_ARCHITECTURES if a != "non-acc"]


def make_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        # One seed for the *whole* grid: every cell replays identical
        # arrivals and request bodies (CRN), so cross-cell latency
        # deltas are attributable to placement and architecture alone.
        Shard(
            (placement.value, architecture),
            {"placement": placement.value, "architecture": architecture},
            derive_seed(seed, "fig_placement"),
        )
        for placement in PLACEMENTS
        for architecture in MAIN_ARCHITECTURES
    ]


def run_shard(shard: Shard, scale: str) -> Dict[str, float]:
    """Latency + hop metrics for one (placement, architecture) cell."""
    placement = shard.params["placement"]
    architecture = shard.params["architecture"]
    spec = pick_service(social_network_services(), SERVICE)
    config = RunConfig(
        architecture,
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="poisson",
        rate_rps=RATE_RPS,
        machine_params=MachineParams().with_placement(placement),
    )
    cell = run_dedicated_service(spec, config)
    service = cell["service"]
    net = cell["hardware_stats"]["network"]
    hops = net.get("hops", {})
    return {
        "p99_ns": service.p99_ns(),
        "mean_ns": service.mean_ns(),
        "completed": float(service.completed),
        "censored": float(service.censored),
        "hop_transfers": sum(h["transfers"] for h in hops.values()),
        "hop_bytes": sum(h["bytes"] for h in hops.values()),
        "local_site_transfers": float(net.get("local_site_transfers", 0.0)),
    }


def merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99 = {
        placement: {
            arch: payloads[(placement, arch)]["p99_ns"]
            for arch in MAIN_ARCHITECTURES
        }
        for placement in PLACEMENT_ORDER
    }
    mean = {
        placement: {
            arch: payloads[(placement, arch)]["mean_ns"]
            for arch in MAIN_ARCHITECTURES
        }
        for placement in PLACEMENT_ORDER
    }

    table = format_table(
        ["Placement"] + MAIN_ARCHITECTURES,
        [
            [placement]
            + [p99[placement][arch] / 1000.0 for arch in MAIN_ARCHITECTURES]
            for placement in PLACEMENT_ORDER
        ],
        title=(
            "Placement: P99 latency (us) per accelerator placement\n"
            f"({SERVICE} @ {RATE_RPS:g} RPS Poisson; whole ensemble "
            "relocated per row; one CRN seed for the grid)"
        ),
    )
    table += "\n\n" + format_table(
        ["Placement"] + MAIN_ARCHITECTURES,
        [
            [placement]
            + [mean[placement][arch] / 1000.0 for arch in MAIN_ARCHITECTURES]
            for placement in PLACEMENT_ORDER
        ],
        title="Placement: mean latency (us) per accelerator placement",
    )
    table += "\n\n" + format_table(
        ["Placement", "Hop xfers", "Hop MB", "Site-local"],
        [
            [
                placement,
                payloads[(placement, "accelflow")]["hop_transfers"],
                payloads[(placement, "accelflow")]["hop_bytes"] / 1e6,
                payloads[(placement, "accelflow")]["local_site_transfers"],
            ]
            for placement in PLACEMENT_ORDER
        ],
        title="Placement: fabric hop activity (accelflow column)",
    )

    # Headline claim: on-package beats every distant disaggregation
    # point at P99 for every architecture that uses accelerators.
    failures = [
        f"{arch}@{placement}"
        for arch in ACCELERATED
        for placement in CLAIM_PLACEMENTS
        if not p99["on_package"][arch] < p99[placement][arch]
    ]
    claim_ok = not failures
    # Control: non-acc never issues an accelerator transfer, so moving
    # the (unused) ensemble must not change its latency at all.
    invariant_ok = all(
        p99[placement]["non-acc"] == p99["on_package"]["non-acc"]
        and mean[placement]["non-acc"] == mean["on_package"]["non-acc"]
        for placement in PLACEMENT_ORDER
    )
    verdict = "CONFIRMED" if claim_ok else "NOT CONFIRMED"
    table += (
        "\n\nOn-package beats pcie/nic/remote at P99 for all "
        f"accelerated architectures -> {verdict}"
    )
    if failures:
        table += f" (failing cells: {', '.join(failures)})"
    table += (
        "\nnon-acc placement-invariant (control) -> "
        + ("CONFIRMED" if invariant_ok else "NOT CONFIRMED")
    )
    return {
        "p99_ns": p99,
        "mean_ns": mean,
        "placement_claim_confirmed": claim_ok,
        "non_acc_invariant": invariant_ok,
        "table": table,
    }


SHARDED = ShardedExperiment(
    "fig_placement", make_shards, run_shard, merge,
    claim=(
        "(beyond paper) placement study: the on-package ensemble beats "
        "PCIe/NIC/remote disaggregation on P99 under every orchestration "
        "architecture"
    ),
)
run = SHARDED.run
