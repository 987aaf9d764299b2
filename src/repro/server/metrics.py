"""Experiment result containers and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..hw.params import AcceleratorKind
from ..hw.power import EnergyModel
from ..sim import LatencyRecorder
from ..workloads.request import Buckets, Request

__all__ = ["ServiceResult", "ExperimentResult", "energy_summary"]


class ServiceResult:
    """Per-service outcome of one run."""

    def __init__(self, name: str, warmup_fraction: float = 0.1):
        self.name = name
        self.recorder = LatencyRecorder(warmup_fraction=warmup_fraction)
        self.completed = 0
        self.censored = 0  # still in flight at the horizon
        self.errors = 0
        self.timeouts = 0
        #: Requests that lost at least one remote response but recovered
        #: through retried waits (disjoint from ``timeouts``, which are
        #: the fatal ones).
        self.recovered_timeouts = 0
        self.fallback_requests = 0
        self.component_sums: Dict[str, float] = {b: 0.0 for b in Buckets.ALL}
        #: Work completed analytically by the cluster's fluid tier
        #: (continuous mass, not discrete samples) plus its latency
        #: estimates; merged with the exact samples by the
        #: ``merged_*`` accessors. All zero for fluid-free runs.
        self.fluid_completed_mass = 0.0
        self.fluid_mean_latency_ns = 0.0
        self.fluid_est_p99_ns = 0.0
        self.fluid_residual_mass = 0.0

    def record(self, request: Request) -> None:
        self.recorder.record(request.latency_ns)
        self.completed += 1
        if request.error:
            self.errors += 1
        if request.timed_out:
            self.timeouts += 1
        elif request.tcp_retries > 0:
            self.recovered_timeouts += 1
        if request.fell_back:
            self.fallback_requests += 1
        for bucket, value in request.components.items():
            self.component_sums[bucket] += value

    def record_censored(self, latency_so_far_ns: float) -> None:
        """An unfinished request at the horizon: its latency is at least
        this much; including it keeps saturated tails honest."""
        self.recorder.record(latency_so_far_ns)
        self.censored += 1

    def record_fluid(
        self,
        completed_mass: float,
        mean_latency_ns: float,
        residual_mass: float = 0.0,
        est_p99_ns: float = 0.0,
    ) -> None:
        """Fold in the fluid tier's analytical completions for this
        service (see :mod:`repro.cluster.fluid`)."""
        self.fluid_completed_mass = completed_mass
        self.fluid_mean_latency_ns = mean_latency_ns
        self.fluid_residual_mass = residual_mass
        self.fluid_est_p99_ns = est_p99_ns

    # -- derived -------------------------------------------------------------
    def p99_ns(self) -> float:
        return self.recorder.p99()

    def mean_ns(self) -> float:
        return self.recorder.mean()

    def merged_completed(self) -> float:
        """Exact completions plus analytically completed fluid mass."""
        return self.completed + self.fluid_completed_mass

    def merged_mean_ns(self) -> float:
        """Mean latency across both tiers, weighted by completed work."""
        exact_n = len(self.recorder)
        total = exact_n + self.fluid_completed_mass
        if total <= 0:
            raise ValueError(f"service {self.name!r} completed no requests")
        exact_part = self.recorder.mean() * exact_n if exact_n else 0.0
        return (
            exact_part + self.fluid_completed_mass * self.fluid_mean_latency_ns
        ) / total

    def merged_p99_ns(self) -> float:
        """P99 across both tiers: the exact empirical P99 when exact
        samples dominate, otherwise the fluid estimate (calibration
        p99/mean shape ratio applied to the fluid mean)."""
        exact_n = len(self.recorder)
        if exact_n >= self.fluid_completed_mass and exact_n > 0:
            return self.recorder.p99()
        if self.fluid_completed_mass > 0:
            return self.fluid_est_p99_ns
        return self.recorder.p99()


@dataclass
class ExperimentResult:
    """Outcome of one (architecture, workload, load) run."""

    architecture: str
    services: Dict[str, ServiceResult]
    elapsed_ns: float
    hardware_stats: Dict[str, object]
    orchestrator_stats: Dict[str, object]
    utilizations: Dict[AcceleratorKind, float] = field(default_factory=dict)
    offered_rps: Dict[str, float] = field(default_factory=dict)

    # -- aggregates -------------------------------------------------------
    def total_completed(self) -> int:
        return sum(s.completed for s in self.services.values())

    def total_censored(self) -> int:
        return sum(s.censored for s in self.services.values())

    def p99_ns(self, service: str) -> float:
        return self.services[service].p99_ns()

    def mean_ns(self, service: str) -> float:
        return self.services[service].mean_ns()

    def mean_p99_ns(self) -> float:
        """Unweighted mean of per-service P99s (the paper's averages)."""
        values = [s.p99_ns() for s in self.services.values() if len(s.recorder)]
        if not values:
            raise ValueError("no completed requests")
        return sum(values) / len(values)

    def mean_latency_ns(self) -> float:
        values = [s.mean_ns() for s in self.services.values() if len(s.recorder)]
        if not values:
            raise ValueError("no completed requests")
        return sum(values) / len(values)

    def achieved_rps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_completed() / (self.elapsed_ns * 1e-9)

    def orchestration_fraction(self) -> float:
        """Orchestration share of total attributed time (Figure 3)."""
        total = 0.0
        orchestration = 0.0
        for service in self.services.values():
            for bucket, value in service.component_sums.items():
                total += value
                if bucket == Buckets.ORCHESTRATION:
                    orchestration += value
        return orchestration / total if total > 0 else 0.0


def energy_summary(result: ExperimentResult, pes: int = 8) -> Dict[str, float]:
    """Energy/power summary of a run (Section VII.B.5 substitute)."""
    model = EnergyModel()
    elapsed = result.elapsed_ns
    hardware = result.hardware_stats
    core_stats = hardware["cores"]
    cores = int(core_stats["cores"])
    core_j = model.core_energy_j(cores, elapsed, core_stats["busy_ns"])
    accel_j = 0.0
    for kind in AcceleratorKind:
        accel_stats = hardware["accelerators"][kind.value]
        accel_j += model.accel_energy_j(kind, elapsed, accel_stats["busy_ns"], pes)
    glue = result.orchestrator_stats.get("glue", {})
    dispatcher_ops = int(glue.get("operations", 0))
    orch_j = model.orchestration_energy_j(
        elapsed, hardware["dma"]["busy_ns"], dispatcher_ops
    )
    total_j = core_j + accel_j + orch_j
    return {
        "core_j": core_j,
        "accel_j": accel_j,
        "orchestration_j": orch_j,
        "total_j": total_j,
        "perf_per_watt": model.performance_per_watt(
            result.total_completed(), elapsed, total_j
        ),
    }
