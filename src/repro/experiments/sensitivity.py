"""Section VII.C sensitivity studies beyond the numbered figures.

* Inter-chiplet latency (VII.C.2): 20-100 cycles, for 2- and 6-chiplet
  organizations; the paper reports +45% average tail latency going from
  60 to 100 cycles on 6-chiplet systems.
* Accelerator speedups (VII.C.5): all speedups scaled by 0.25x-4x; the
  faster the accelerators, the more orchestration matters, so the
  AccelFlow-over-RELIEF gain grows from 1.4x (0.25x) through 2.2x (1x)
  to 3.9x (4x).
"""

from __future__ import annotations

from typing import Dict, List

from ..hw import MachineParams
from ..server import RunConfig, run_experiment
from ..sim import derive_seed
from ..workloads import social_network_services
from .common import format_table, pct_reduction, requests_for, signed_pct
from .parallel import Shard, ShardedExperiment

__all__ = ["run_interchiplet", "run_speedups", "run_adaptive",
           "INTER_CHIPLET_CYCLES", "SPEEDUP_SCALES", "ADAPTIVE_SCALES"]

INTER_CHIPLET_CYCLES = [20.0, 60.0, 100.0]
SPEEDUP_SCALES = [0.25, 0.5, 1.0, 2.0, 4.0]


# -- VII.C.2: inter-chiplet latency --------------------------------------

def _interchiplet_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        Shard("sens-interchiplet", (chiplets, cycles),
              {"chiplets": chiplets, "cycles": cycles},
              derive_seed(seed, "sens-interchiplet"))
        for chiplets in (2, 6)
        for cycles in INTER_CHIPLET_CYCLES
    ]


def _interchiplet_shard(shard: Shard, scale: str) -> float:
    params = (
        MachineParams()
        .with_layout(shard.params["chiplets"])
        .with_inter_chiplet_cycles(shard.params["cycles"])
    )
    config = RunConfig(
        architecture="accelflow",
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        machine_params=params,
    )
    return run_experiment(social_network_services(), config).mean_p99_ns()


def _interchiplet_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99: Dict[int, Dict[float, float]] = {
        chiplets: {
            cycles: payloads[(chiplets, cycles)]
            for cycles in INTER_CHIPLET_CYCLES
        }
        for chiplets in (2, 6)
    }
    rows = []
    for chiplets in (2, 6):
        rows.append(
            [f"{chiplets}-chiplet"]
            + [p99[chiplets][c] / 1000.0 for c in INTER_CHIPLET_CYCLES]
        )
    increase = -pct_reduction(p99[6][60.0], p99[6][100.0])
    table = format_table(
        ["Organization"] + [f"{c:g} cyc" for c in INTER_CHIPLET_CYCLES],
        rows,
        title="VII.C.2: mean P99 (us) vs inter-chiplet latency",
    )
    table += (
        f"\n\n6-chiplet, 60 -> 100 cycles: {signed_pct(increase)} (paper: +45%)"
    )
    return {"p99_ns": p99, "increase_6c_60_to_100_pct": increase, "table": table}


SHARDED_INTERCHIPLET = ShardedExperiment(
    "sens-interchiplet", _interchiplet_shards, _interchiplet_shard,
    _interchiplet_merge,
)


def run_interchiplet(scale: str = "quick", seed: int = 0, executor=None) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED_INTERCHIPLET.run(scale=scale, seed=seed, executor=executor)


# -- VII.C.5: accelerator speedups ---------------------------------------

def _speedups_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        Shard("sens-speedups", (speedup_scale, arch),
              {"speedup_scale": speedup_scale, "architecture": arch},
              derive_seed(seed, "sens-speedups"))
        for speedup_scale in SPEEDUP_SCALES
        for arch in ("relief", "accelflow")
    ]


def _speedups_shard(shard: Shard, scale: str) -> float:
    params = MachineParams().with_speedup_scale(shard.params["speedup_scale"])
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="alibaba",
        machine_params=params,
    )
    return run_experiment(social_network_services(), config).mean_p99_ns()


def _speedups_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99: Dict[float, Dict[str, float]] = {
        s: {arch: payloads[(s, arch)] for arch in ("relief", "accelflow")}
        for s in SPEEDUP_SCALES
    }
    gains = {s: p99[s]["relief"] / p99[s]["accelflow"] for s in SPEEDUP_SCALES}
    rows = [
        [f"{s:g}x", p99[s]["relief"] / 1000.0, p99[s]["accelflow"] / 1000.0,
         f"{gains[s]:.2f}x"]
        for s in SPEEDUP_SCALES
    ]
    table = format_table(
        ["Speedup scale", "RELIEF P99 (us)", "AccelFlow P99 (us)", "Gain"],
        rows,
        title="VII.C.5: AccelFlow gain vs accelerator speedups "
              "(paper: 1.4x @0.25x, 2.2x @1x, 3.9x @4x)",
    )
    return {"p99_ns": p99, "gains": gains, "table": table}


SHARDED_SPEEDUPS = ShardedExperiment(
    "sens-speedups", _speedups_shards, _speedups_shard, _speedups_merge,
)


def run_speedups(scale: str = "quick", seed: int = 0, executor=None) -> Dict:
    """Classic entry point; delegates to the sharded executor path."""
    return SHARDED_SPEEDUPS.run(scale=scale, seed=seed, executor=executor)


# -- Section IX: load-adaptive offload -----------------------------------

ADAPTIVE_SCALES = [1.0, 4.0, 7.0]

_ADAPTIVE_ARCHES = ("accelflow", "accelflow-adaptive")
_ADAPTIVE_SERVICES = ("UniqId", "StoreP")


def _adaptive_shards(scale: str = "quick", seed: int = 0) -> List[Shard]:
    return [
        Shard("sens-adaptive", (rate_scale, arch),
              {"rate_scale": rate_scale, "architecture": arch},
              derive_seed(seed, "sens-adaptive", rate_scale))
        for rate_scale in ADAPTIVE_SCALES
        for arch in _ADAPTIVE_ARCHES
    ]


def _adaptive_shard(shard: Shard, scale: str) -> Dict:
    services = [
        s for s in social_network_services() if s.name in _ADAPTIVE_SERVICES
    ]
    config = RunConfig(
        architecture=shard.params["architecture"],
        requests_per_service=requests_for(scale),
        seed=shard.seed,
        arrival_mode="poisson",
        rate_scale=shard.params["rate_scale"],
    )
    result = run_experiment(services, config)
    payload = {"mean_p99_ns": result.mean_p99_ns(), "bypass_fraction": None}
    if shard.params["architecture"] == "accelflow-adaptive":
        stats = result.orchestrator_stats["per_service"]
        payload["bypass_fraction"] = sum(
            s["bypass_fraction"] for s in stats.values()
        ) / len(stats)
    return payload


def _adaptive_merge(payloads: Dict, scale: str, seed: int) -> Dict:
    p99: Dict[str, Dict[float, float]] = {arch: {} for arch in _ADAPTIVE_ARCHES}
    bypass: Dict[float, float] = {}
    for rate_scale in ADAPTIVE_SCALES:
        for arch in _ADAPTIVE_ARCHES:
            cell = payloads[(rate_scale, arch)]
            p99[arch][rate_scale] = cell["mean_p99_ns"]
            if arch == "accelflow-adaptive":
                bypass[rate_scale] = cell["bypass_fraction"]
    rows = []
    for rate_scale in ADAPTIVE_SCALES:
        rows.append(
            [
                f"{rate_scale:g}x load",
                p99["accelflow"][rate_scale] / 1000.0,
                p99["accelflow-adaptive"][rate_scale] / 1000.0,
                f"{bypass[rate_scale] * 100:.1f}%",
            ]
        )
    table = format_table(
        ["Load", "AccelFlow P99 (us)", "Adaptive P99 (us)", "Bypassed ops"],
        rows,
        title="Section IX future work: load-adaptive software bypass",
    )
    return {"p99_ns": p99, "bypass_fraction": bypass, "table": table}


SHARDED_ADAPTIVE = ShardedExperiment(
    "sens-adaptive", _adaptive_shards, _adaptive_shard, _adaptive_merge,
)


def run_adaptive(scale: str = "quick", seed: int = 0, executor=None) -> Dict:
    """Future work (Section IX): load-adaptive offload decisions.

    Compares stock AccelFlow against the adaptive variant that bypasses
    congested accelerators to software, across load multipliers. The
    expected shape: identical at light load (no bypasses), adaptive
    ahead once accelerator queues build.
    """
    return SHARDED_ADAPTIVE.run(scale=scale, seed=seed, executor=executor)
