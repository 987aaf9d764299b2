"""Cluster experiment driver: fleet-level load generation and results.

Mirrors :mod:`repro.server.driver` one level up: open-loop arrival
processes (Poisson or MMPP, via :func:`repro.workloads.make_arrivals`)
feed the cluster's front door, every request's lifecycle process lands
in a sink, and the run ends at full completion or at a horizon. The
fold produces a :class:`ClusterResult` with per-service
:class:`~repro.server.metrics.ServiceResult` objects plus the
fleet-level counters (shed / degraded / rerouted / lost, machine
stats) and a cluster-wide latency distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..hw.params import MachineParams
from ..server.driver import OpenLoopConfig
from ..server.metrics import ServiceResult
from ..sim import LatencyRecorder
from ..workloads.arrivals import make_arrivals
from ..workloads.spec import ServiceSpec
from .admission import AdmissionConfig
from .cluster import MachineFailure, RequestStatus, SimulatedCluster
from .health import HealthConfig

if TYPE_CHECKING:  # pragma: no cover - the fluid tier loads when configured
    from .fluid import FluidConfig

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "fold_cluster_result",
    "run_cluster",
]

_SECOND_NS = 1e9


@dataclass(frozen=True)
class ClusterConfig(OpenLoopConfig):
    """Parameters of one cluster measurement run.

    The open-loop fields come from
    :class:`~repro.server.driver.OpenLoopConfig`. Here ``faults`` gives
    every fleet member its own seeded :class:`~repro.faults.FaultPlane`,
    and ``obs`` observes the fleet (gauges, control-plane spans).
    """

    architecture: str = "accelflow"
    requests_per_service: int = 200
    #: Balancer policy name (see :data:`repro.cluster.BALANCER_POLICIES`).
    policy: str = "round-robin"
    #: Initial fleet size.
    machines: int = 2
    #: Processor-generation cycle for a heterogeneous fleet (machine i
    #: gets ``generations[i % len]``); empty = homogeneous fleet.
    generations: Tuple[str, ...] = ()
    admission: Optional[AdmissionConfig] = None
    failures: Tuple[MachineFailure, ...] = ()
    #: Fluid-approximation tier (None = every request simulates
    #: exactly; see :mod:`repro.cluster.fluid`).
    fluid: Optional[FluidConfig] = None
    #: Machine health scoring + lame-duck ejection (None disables).
    health: Optional[HealthConfig] = None

    def machine_params_for(self, index: int) -> MachineParams:
        params = self.machine_params or MachineParams()
        if self.generations:
            params = params.with_generation(
                self.generations[index % len(self.generations)]
            )
        return params


@dataclass
class ClusterResult:
    """Outcome of one cluster run."""

    policy: str
    architecture: str
    services: Dict[str, ServiceResult]
    elapsed_ns: float
    #: Latency distribution over every completed request in the fleet.
    recorder: LatencyRecorder
    arrivals: int = 0
    completed: int = 0
    shed: int = 0
    degraded: int = 0
    rerouted: int = 0
    lost: int = 0
    machines_failed: int = 0
    peak_machines: int = 0
    machine_stats: List[Dict] = dataclass_field(default_factory=list)
    admission_stats: Optional[Dict] = None
    offered_rps: Dict[str, float] = dataclass_field(default_factory=dict)
    #: Fluid-tier accounting (``FluidTier.stats()``), None without the tier.
    fluid_stats: Optional[Dict] = None
    #: Health-plane accounting (``HealthMonitor.stats()``), None without it.
    health_stats: Optional[Dict] = None
    #: The cluster itself, for white-box tests (not for shard payloads).
    cluster: Optional[SimulatedCluster] = dataclass_field(
        default=None, repr=False, compare=False
    )

    # -- aggregates -------------------------------------------------------
    def p99_ns(self) -> float:
        return self.recorder.p99()

    def mean_ns(self) -> float:
        return self.recorder.mean()

    # -- fluid-tier merges ------------------------------------------------
    def fluid_completed_mass(self) -> float:
        return sum(s.fluid_completed_mass for s in self.services.values())

    def merged_completed(self) -> float:
        """Exact completions plus analytically completed fluid mass."""
        return self.completed + self.fluid_completed_mass()

    def merged_mean_ns(self) -> float:
        """Mean latency over exact samples and fluid estimates, weighted
        by how much work each tier completed."""
        exact_n = len(self.recorder)
        fluid_mass = self.fluid_completed_mass()
        total = exact_n + fluid_mass
        if total <= 0:
            raise ValueError("no completed requests")
        exact_part = self.recorder.mean() * exact_n if exact_n else 0.0
        fluid_part = sum(
            s.fluid_completed_mass * s.fluid_mean_latency_ns
            for s in self.services.values()
        )
        return (exact_part + fluid_part) / total

    def jobs_integral_ns(self) -> float:
        """Integral of jobs-in-system over the run (job-ns): exact
        samples contribute their summed latency (Little's law), fluid
        queues their mass integral. Window-independent, so it is the
        apples-to-apples 'utilization' metric the validation harness
        compares across tiers (the time-normalized mean would be
        skewed by the tiers' different drain-tail lengths)."""
        exact = sum(self.recorder.samples)
        fluid = (
            self.fluid_stats["mass_integral_ns"]
            if self.fluid_stats is not None
            else 0.0
        )
        return exact + fluid

    def mean_p99_ns(self) -> float:
        """Unweighted mean of per-service P99s (the paper's averages)."""
        values = [s.p99_ns() for s in self.services.values() if len(s.recorder)]
        if not values:
            raise ValueError("no completed requests")
        return sum(values) / len(values)

    def total_censored(self) -> int:
        return sum(s.censored for s in self.services.values())

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    def achieved_rps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.completed / (self.elapsed_ns * 1e-9)


def _source(cluster: SimulatedCluster, spec: ServiceSpec,
            config: ClusterConfig, sink: List):
    """Process: open-loop arrivals for one service at the front door."""
    arrivals = make_arrivals(
        config.arrival_mode,
        config.offered_rps(spec),
        cluster.streams.stream(f"arrivals/{spec.name}"),
    )
    for _ in range(config.requests_per_service):
        yield cluster.env.timeout(arrivals.next_gap_ns())
        request = cluster.make_request(spec)
        sink.append((spec.name, request.arrival_ns, cluster.submit(request)))


def _batched_source(cluster: SimulatedCluster, spec: ServiceSpec,
                    config: ClusterConfig, sink: List):
    """Process: batched per-quantum Poisson arrivals for one service.

    The fleet-scale fast path (``FluidConfig.batched``): instead of one
    timeout per request, each fluid quantum admits a Poisson-sized
    batch at the front door in one event. Uses its own CRN stream, so
    flipping ``batched`` never perturbs the per-request arrival stream.
    """
    from .fluid import QUANTUM_NS as quantum

    stream = cluster.streams.stream(f"arrivals-batched/{spec.name}")
    mean = config.offered_rps(spec) * quantum / _SECOND_NS
    remaining = config.requests_per_service
    while remaining > 0:
        yield cluster.env.timeout(quantum)
        count = min(remaining, stream.poisson(mean))
        if count:
            sink.extend(cluster.submit_batch(spec, count))
            remaining -= count


def run_cluster(
    services: List[ServiceSpec], config: ClusterConfig
) -> ClusterResult:
    """Run one cluster measurement; see the module docstring."""
    cluster = SimulatedCluster(config)
    env = cluster.env
    sink: List = []
    batched = config.fluid is not None and config.fluid.batched
    source_fn = _batched_source if batched else _source
    sources = [
        env.process(source_fn(cluster, spec, config, sink), name=f"src-{spec.name}")
        for spec in services
    ]
    horizon_ns = config.horizon_ns(services)
    if cluster.fluid is not None:
        cluster.fluid.start(services, horizon_ns)

    def _watch_completion(env):
        for source in sources:
            yield source
        yield env.all_of([proc for _, _, proc in sink])
        fluid = cluster.fluid
        if fluid is not None:
            from .fluid import QUANTUM_NS

            # Wait for the analytical queues to drain (mass decays
            # exponentially, so "drained" means below a negligible
            # threshold); the horizon still bounds an unstable fluid
            # queue.
            while fluid.total_mass() > 0.05:
                yield env.timeout(QUANTUM_NS)

    watcher = env.process(_watch_completion(env))
    env.run(until=env.any_of([watcher, env.timeout(horizon_ns)]))
    return fold_cluster_result(cluster, services, config, sink)


def fold_cluster_result(
    cluster: SimulatedCluster,
    services: List[ServiceSpec],
    config: ClusterConfig,
    sink: List,
) -> ClusterResult:
    """Fold a driven cluster and its lifecycle sink into a result.

    The sink holds ``(service, arrival_ns, process)`` triples, one per
    front-door submission. This is the shared back half of
    :func:`run_cluster`, split out so incremental drivers — the live
    serving façade (:mod:`repro.serve`) paces the same cluster against
    wall-clock time — can produce the identical :class:`ClusterResult`
    from a sink they accumulated themselves. Processes still pending
    when this is called are recorded as censored.
    """
    env = cluster.env
    results = {
        spec.name: ServiceResult(spec.name, warmup_fraction=config.warmup_fraction)
        for spec in services
    }
    recorder = LatencyRecorder(warmup_fraction=config.warmup_fraction)
    for name, arrival_ns, proc in sink:
        result = results[name]
        if not proc.triggered:
            # Still in flight at the horizon.
            result.record_censored(env.now - arrival_ns)
            continue
        status, request = proc.value
        if status in (RequestStatus.SHED, RequestStatus.FLUID):
            continue  # counted by the cluster, carries no latency sample
        result.record(request)
        recorder.record(request.latency_ns)
    if cluster.fluid is not None:
        for name, result in results.items():
            summary = cluster.fluid.service_summary(name)
            result.record_fluid(
                summary["completed_mass"],
                summary["mean_latency_ns"],
                residual_mass=summary["residual_mass"],
                est_p99_ns=summary["est_p99_ns"],
            )

    stats = cluster.stats()
    return ClusterResult(
        policy=config.policy,
        architecture=config.architecture,
        services=results,
        elapsed_ns=env.now,
        recorder=recorder,
        arrivals=stats["arrivals"],
        completed=stats["completed"],
        shed=stats["shed"],
        degraded=stats["degraded"],
        rerouted=stats["rerouted"],
        lost=stats["lost"],
        machines_failed=stats["machines_failed"],
        peak_machines=stats["peak_machines"],
        machine_stats=stats["machines"],
        admission_stats=stats["admission"],
        offered_rps={spec.name: config.offered_rps(spec) for spec in services},
        fluid_stats=stats["fluid"],
        health_stats=stats["health"],
        cluster=cluster,
    )
