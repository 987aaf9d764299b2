"""Section VII.B characterization: glue instructions, utilization,
power/energy and high-overhead events.

* VII.B.2 — output-dispatcher glue instructions: ~15 base, +7/branch,
  12-20 at end of trace, +12/transform; ~18 average, ~50 worst case.
* VII.B.4 — accelerator utilization at peak throughput: TCP 92%,
  (De)Encr 82%, RPC 68%, (De)Ser 73%, (De)Cmp 38%, LdB 71%.
* VII.B.5 — power/energy: AccelFlow cuts server energy by 74% vs
  Non-acc; perf/W 7.2x Non-acc, 2.1x RELIEF.
* VII.B.6 — high-overhead events: overflow-full fallbacks 1.4% of
  invocations (5.9% peak), page faults 0.13/Mi, TCP timeouts 3.2/M
  requests, L1 D-TLB 3.4 MPKI.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import ACCEL_KINDS
from ..server import (
    RunConfig,
    energy_summary,
    run_dedicated_service,
    run_experiment,
)
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pick_service, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run_glue", "run_utilization", "run_energy", "run_events"]

PAPER_UTILIZATION = {
    "TCP": 0.92,
    "Encr": 0.82,
    "Decr": 0.82,
    "RPC": 0.68,
    "Ser": 0.73,
    "Dser": 0.73,
    "Cmp": 0.38,
    "Dcmp": 0.38,
    "LdB": 0.71,
}


def _alibaba_cell(
    shard: Shard, scale: str, rate_scale: float = 1.0
) -> Dict[str, object]:
    """One dedicated accelflow (service) cell of the alibaba-driven run."""
    spec = pick_service(social_network_services(), shard.params["service"])
    config = RunConfig(
        architecture="accelflow",
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        rate_scale=rate_scale,
    )
    return run_dedicated_service(spec, config)


def _service_shards(name: str, seed: int) -> List[Shard]:
    return [
        Shard((spec.name,), {"service": spec.name},
              derive_seed(seed, name, spec.name))
        for spec in social_network_services()
    ]


# -- VII.B.2: glue instructions ------------------------------------------

def _glue_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return _service_shards("char-glue", seed)


def _glue_shard(shard: Shard, scale: str) -> Dict:
    cell = _alibaba_cell(shard, scale)
    return cell["orchestrator_stats"]["glue"]


def _glue_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    operations = 0
    instructions = 0
    branches = 0
    transforms = 0
    for glue in payloads.values():
        operations += int(glue["operations"])
        instructions += int(glue["total_instructions"])
        branches += int(glue["branches_resolved"])
        transforms += int(glue["transforms_performed"])
    average = instructions / operations if operations else 0.0
    table = format_table(
        ["Metric", "Measured", "Paper"],
        [
            ["dispatcher operations", operations, "-"],
            ["avg instructions/op", f"{average:.1f}", "18"],
            ["branches resolved", branches, "-"],
            ["transforms performed", transforms, "-"],
        ],
        title="VII.B.2: output-dispatcher glue instructions",
    )
    return {
        "operations": operations,
        "average_instructions": average,
        "branches": branches,
        "transforms": transforms,
        "table": table,
    }


SHARDED_GLUE = ShardedExperiment(
    "char-glue", _glue_shards, _glue_shard, _glue_merge,
    claim=(
        "Output dispatcher: ~15 base instructions, 18 average, ~50 worst case"
    ),
)
run_glue = SHARDED_GLUE.run


# -- VII.B.4: utilization ------------------------------------------------

def _utilization_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return _service_shards("char-utilization", seed)


def _utilization_shard(shard: Shard, scale: str) -> Dict:
    # Push load toward the saturation knee of the busiest accelerator.
    cell = _alibaba_cell(shard, scale, rate_scale=3.5)
    return cell["utilizations"]


def _utilization_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    utilization: Dict[str, float] = {k.value: 0.0 for k in ACCEL_KINDS}
    for per_service in payloads.values():
        for kind, value in per_service.items():
            utilization[kind.value] = max(utilization[kind.value], value)
    rows = [
        [name, f"{value * 100:.0f}%", f"{PAPER_UTILIZATION[name] * 100:.0f}%"]
        for name, value in utilization.items()
    ]
    table = format_table(
        ["Accelerator", "Peak utilization", "Paper"],
        rows,
        title="VII.B.4: accelerator utilization at peak",
    )
    cmp_lowest = (
        utilization["Cmp"] <= min(utilization["TCP"], utilization["Ser"])
        or utilization["Dcmp"] <= min(utilization["TCP"], utilization["Ser"])
    )
    return {"utilization": utilization, "cmp_lowest": cmp_lowest, "table": table}


SHARDED_UTILIZATION = ShardedExperiment(
    "char-utilization", _utilization_shards, _utilization_shard,
    _utilization_merge,
    claim=(
        "Peak utilization: TCP 92%, (De)Encr 82%, RPC 68%, (De)Ser 73%, "
        "(De)Cmp 38%, LdB 71%"
    ),
)
run_utilization = SHARDED_UTILIZATION.run


# -- VII.B.5: energy -----------------------------------------------------

_ENERGY_ARCHES = ("non-acc", "relief", "accelflow")


def _energy_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    # Colocated runs (all services share one server) cannot split
    # further; one shard per architecture, sharing a derived seed.
    return [
        Shard((arch,), {"architecture": arch},
              derive_seed(seed, "char-energy"))
        for arch in _ENERGY_ARCHES
    ]


def _energy_shard(shard: Shard, scale: str):
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        colocated=True,
        rate_scale=0.25,  # colocated: keep the shared server feasible
    )
    return run_experiment(social_network_services(), config)


def _energy_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    summaries = {}
    per_request_j = {}
    perf_per_watt = {}
    for arch in _ENERGY_ARCHES:
        result = payloads[(arch,)]
        energy = energy_summary(result)
        summaries[arch] = energy
        per_request_j[arch] = energy["total_j"] / max(1, result.total_completed())
        perf_per_watt[arch] = energy["perf_per_watt"]
    savings = 100.0 * (1 - per_request_j["accelflow"] / per_request_j["non-acc"])
    ppw_vs_nonacc = perf_per_watt["accelflow"] / perf_per_watt["non-acc"]
    ppw_vs_relief = perf_per_watt["accelflow"] / perf_per_watt["relief"]
    rows = [
        [arch, f"{per_request_j[arch] * 1e6:.1f}", f"{perf_per_watt[arch]:.1f}"]
        for arch in summaries
    ]
    table = format_table(
        ["Architecture", "energy/request (uJ)", "perf/W (RPS/W)"],
        rows,
        title="VII.B.5: energy and performance per watt",
    )
    table += (
        f"\n\nAccelFlow energy/request vs Non-acc: {signed_pct(-savings)} "
        "(paper: -74%)"
        f"\nperf/W: {ppw_vs_nonacc:.1f}x Non-acc (paper 7.2x), "
        f"{ppw_vs_relief:.1f}x RELIEF (paper 2.1x)"
    )
    return {
        "summaries": summaries,
        "per_request_j": per_request_j,
        "energy_savings_pct": savings,
        "ppw_vs_nonacc": ppw_vs_nonacc,
        "ppw_vs_relief": ppw_vs_relief,
        "table": table,
    }


SHARDED_ENERGY = ShardedExperiment(
    "char-energy", _energy_shards, _energy_shard, _energy_merge,
    claim="Energy -74% vs Non-acc; perf/W 7.2x Non-acc / 2.1x RELIEF",
)
run_energy = SHARDED_ENERGY.run


# -- VII.B.6: high-overhead events ---------------------------------------

def _events_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return _service_shards("char-events", seed)


def _events_shard(shard: Shard, scale: str) -> Dict:
    cell = _alibaba_cell(shard, scale)
    return {
        "hardware": cell["hardware_stats"],
        "orchestrator": cell["orchestrator_stats"],
        "completed": cell["service"].completed,
    }


def _events_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    total_ops = 0
    overflow = 0
    rejected = 0
    tlb_accesses = tlb_misses = page_faults = 0.0
    timeouts = 0
    completed = 0
    for cell in payloads.values():
        hw = cell["hardware"]
        for accel_stats in hw["accelerators"].values():
            total_ops += int(accel_stats["ops_completed"])
            overflow += int(accel_stats["overflow_admissions"])
            rejected += int(accel_stats["ops_rejected"])
        tlb = hw["tlb"]
        tlb_accesses += tlb["accesses"]
        tlb_misses += tlb["misses"]
        page_faults += tlb["page_faults"]
        timeouts += int(cell["orchestrator"]["tcp_timeouts"])
        completed += cell["completed"]
    rows = [
        ["overflow admissions / invocation",
         f"{overflow / max(1, total_ops) * 100:.2f}%", "1.4% (peak 5.9%)"],
        ["queue-full fallbacks / invocation",
         f"{rejected / max(1, total_ops) * 100:.3f}%", "(rare)"],
        ["TLB miss rate", f"{tlb_misses / max(1, tlb_accesses) * 100:.2f}%",
         "~2% (3.4 MPKI)"],
        ["page faults / M ops", f"{page_faults / max(1, total_ops) * 1e6:.1f}",
         "0.13 / M instr"],
        ["TCP timeouts / M requests", f"{timeouts / max(1, completed) * 1e6:.1f}",
         "3.2 / M requests"],
    ]
    table = format_table(
        ["Event", "Measured", "Paper"],
        rows,
        title="VII.B.6: frequency of high-overhead events",
    )
    return {
        "total_ops": total_ops,
        "overflow_admissions": overflow,
        "rejected": rejected,
        "tlb_miss_rate": tlb_misses / max(1, tlb_accesses),
        "page_faults": page_faults,
        "tcp_timeouts": timeouts,
        "table": table,
    }


SHARDED_EVENTS = ShardedExperiment(
    "char-events", _events_shards, _events_shard, _events_merge,
    claim=(
        "Rare events: overflow 1.4%, page faults 0.13/Mi, TCP timeouts 3.2/M"
    ),
)
run_events = SHARDED_EVENTS.run
