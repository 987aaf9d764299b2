"""Experiment driver: open-loop load generation and measurement runs.

The driver builds a :class:`SimulatedServer`, plays an arrival process
per service, and collects per-service latency distributions plus
hardware statistics. Two deployment modes match the paper's setups:

* dedicated — each service measured on its own server instance
  (Figures 11-14, 18-20); results are merged across services.
* colocated — all services share one server (the serverless study,
  Figure 16).

``run_unloaded`` executes requests one at a time (Figure 17 and the
SLO reference latencies), and ``max_throughput_search`` binary-searches
the highest per-service load whose P99 stays within the SLO (Fig 14).

:func:`drive` is the one open-loop harness every single-server run
goes through, the chaos experiments included; :func:`calibrate_slo`
is their shared fault-free SLO reference run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultConfig
from ..hw.accelerator import QueuePolicy
from ..hw.params import MachineParams
from ..obs import ObsConfig
from ..obs.telemetry import Marker
from ..sim import Process
from ..workloads.arrivals import make_arrivals
from ..workloads.calibration import (
    BranchProbabilities,
    OrchestrationCosts,
    RemoteLatencies,
)
from ..core.registry import TraceRegistry
from ..workloads.request import Request
from ..workloads.spec import ServiceSpec
from .machine import SimulatedServer
from .metrics import ExperimentResult, ServiceResult

__all__ = [
    "OpenLoopConfig",
    "RunConfig",
    "calibrate_slo",
    "drive",
    "make_server",
    "run_experiment",
    "run_dedicated_service",
    "combine_dedicated",
    "run_unloaded",
    "max_throughput_search",
]

_SECOND_NS = 1e9

#: Multiplies a service's unloaded reference latency to set each
#: request's soft deadline when the EDF queue policy is active.
SLO_MULTIPLIER = 5.0


@dataclass(frozen=True)
class OpenLoopConfig:
    """Open-loop run parameters shared by :class:`RunConfig` and
    :class:`~repro.cluster.ClusterConfig`."""

    architecture: str
    requests_per_service: int = 300
    seed: int = 0
    queue_policy: str = QueuePolicy.FIFO
    machine_params: Optional[MachineParams] = None
    #: "poisson" (Fig 12 sweeps) or "alibaba"/"azure" (MMPP bursty).
    arrival_mode: str = "alibaba"
    #: Overrides every service's own rate when set (RPS per service).
    rate_rps: Optional[float] = None
    rate_scale: float = 1.0
    warmup_fraction: float = 0.1
    #: Run at most this much simulated time past the last arrival.
    drain_ns: float = 200e6
    orch_costs: Optional[OrchestrationCosts] = None
    remotes: Optional[RemoteLatencies] = None
    branch_probs: Optional[BranchProbabilities] = None
    #: Custom trace catalogue (defaults to the standard T1-T12 set).
    registry: Optional[TraceRegistry] = None
    #: Observability switchboard (tracing / metrics / kernel profiling).
    #: Dedicated-mode runs create one server per service, each appending
    #: its own session to this config; use colocated or single-service
    #: runs for one consolidated trace.
    obs: Optional[ObsConfig] = None
    #: Fault injection + recovery knobs (None or all-zero rates = the
    #: fault-free simulator, bit for bit).
    faults: Optional[FaultConfig] = None

    def offered_rps(self, spec: ServiceSpec) -> float:
        """Offered load of one service: ``rate_rps`` when set, else the
        spec's own rate, times ``rate_scale``."""
        rate = self.rate_rps if self.rate_rps is not None else spec.rate_rps
        rate *= self.rate_scale
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return rate

    def horizon_ns(self, services: Sequence[ServiceSpec]) -> float:
        """Expected arrival span of the slowest source plus the drain."""
        span = max(
            self.requests_per_service / self.offered_rps(spec)
            for spec in services
        )
        return span * _SECOND_NS + self.drain_ns


@dataclass(frozen=True)
class RunConfig(OpenLoopConfig):
    """Parameters of one measurement run."""

    #: True: all services share one server. False: one server each.
    colocated: bool = False
    #: Reference unloaded latency per service (for EDF deadlines).
    unloaded_reference_ns: Dict[str, float] = field(default_factory=dict)


#: One submission: the request and its lifecycle process.
InFlight = List[Tuple[Request, Process]]


def make_server(config: RunConfig, seed_offset: int = 0) -> SimulatedServer:
    """A fresh server built from ``config`` (seed + ``seed_offset``)."""
    return SimulatedServer(
        config.architecture,
        machine_params=config.machine_params,
        registry=config.registry,
        seed=config.seed + seed_offset,
        queue_policy=config.queue_policy,
        orch_costs=config.orch_costs,
        remotes=config.remotes,
        branch_probs=config.branch_probs,
        obs=config.obs,
        faults=config.faults,
    )


def _source(server: SimulatedServer, spec: ServiceSpec, config: RunConfig, sink):
    """Process: generate open-loop arrivals for one service."""
    arrivals = make_arrivals(
        config.arrival_mode,
        config.offered_rps(spec),
        server.streams.stream(f"arrivals/{spec.name}"),
    )
    for _ in range(config.requests_per_service):
        yield server.env.timeout(arrivals.next_gap_ns())
        request = server.make_request(spec)
        if config.queue_policy == QueuePolicy.EDF:
            reference = config.unloaded_reference_ns.get(spec.name)
            if reference:
                request.slo_deadline_ns = (
                    server.env.now + SLO_MULTIPLIER * reference
                )
        sink.append((request, server.submit(request)))


def drive(
    server: SimulatedServer, services: Sequence[ServiceSpec], config: RunConfig
) -> InFlight:
    """Play open-loop arrivals for ``services`` into ``server``.

    Starts one arrival source per service, in service order, then runs
    until every submitted request completes or ``config.horizon_ns``
    passes, whichever comes first, so idle drain time never dilutes
    utilization statistics. Returns every submission; requests still in
    flight at the horizon are not ``completed``.
    """
    env = server.env
    bus = server.bus
    if bus is not None:
        bus.publish(
            Marker(
                t_ns=env.now,
                name="run-start",
                args={
                    "architecture": config.architecture,
                    "services": [spec.name for spec in services],
                    "requests_per_service": config.requests_per_service,
                },
            )
        )
    in_flight: InFlight = []
    sources = [
        env.process(
            _source(server, spec, config, in_flight), name=f"src-{spec.name}"
        )
        for spec in services
    ]
    horizon_ns = config.horizon_ns(services)

    def _watch_completion(env):
        for source in sources:
            yield source
        yield env.all_of([proc for _, proc in in_flight])

    watcher = env.process(_watch_completion(env))
    env.run(until=env.any_of([watcher, env.timeout(horizon_ns)]))

    if bus is not None:
        completed = sum(1 for request, _ in in_flight if request.completed)
        bus.publish(
            Marker(
                t_ns=env.now,
                name="run-end",
                args={"submitted": len(in_flight), "completed": completed},
            )
        )
    return in_flight


def _fold(
    server: SimulatedServer,
    services: Sequence[ServiceSpec],
    config: RunConfig,
    in_flight: InFlight,
) -> Dict[str, ServiceResult]:
    """Per-service results; unfinished requests are recorded as censored."""
    results = {
        spec.name: ServiceResult(spec.name, warmup_fraction=config.warmup_fraction)
        for spec in services
    }
    for request, _process in in_flight:
        result = results[request.spec.name]
        if request.completed:
            result.record(request)
        else:
            result.record_censored(server.env.now - request.arrival_ns)
    return results


def calibrate_slo(
    spec: ServiceSpec, config: RunConfig, multiplier: float
) -> Tuple[float, InFlight, SimulatedServer]:
    """The fault-free reference run that pins a chaos cell's SLO.

    Drives ``config`` without faults or observability (same seed, so
    the same arrivals and request bodies) and returns ``(slo_ns,
    in_flight, server)`` with ``slo_ns = multiplier x`` the mean latency
    of the completed requests. Raises RuntimeError if none completed.
    """
    config = replace(config, faults=None, obs=None)
    server = make_server(config)
    in_flight = drive(server, [spec], config)
    latencies = [r.latency_ns for r, _ in in_flight if r.completed]
    if not latencies:
        raise RuntimeError(
            f"fault-free reference run completed nothing "
            f"({config.architecture}, seed {config.seed})"
        )
    return multiplier * (sum(latencies) / len(latencies)), in_flight, server


def run_dedicated_service(
    spec: ServiceSpec, config: RunConfig, seed_offset: int = 0
) -> Dict[str, object]:
    """Measure one service on its own server (one dedicated-mode cell).

    Returns a plain picklable dict so parallel experiment shards can
    ship it across process boundaries; :func:`combine_dedicated` folds
    any number of such cells back into an :class:`ExperimentResult`.
    """
    server = make_server(config, seed_offset=seed_offset)
    in_flight = drive(server, [spec], config)
    return {
        "service": _fold(server, [spec], config, in_flight)[spec.name],
        "elapsed_ns": server.env.now,
        "hardware_stats": server.hardware.stats(),
        "orchestrator_stats": server.orchestrator.stats(),
        "utilizations": server.hardware.accelerator_utilizations(),
        "offered_rps": config.offered_rps(spec),
    }


def combine_dedicated(
    architecture: str, cells: Dict[str, Dict[str, object]]
) -> ExperimentResult:
    """Merge per-service dedicated cells (service name -> cell dict)."""
    return ExperimentResult(
        architecture=architecture,
        services={name: cell["service"] for name, cell in cells.items()},
        elapsed_ns=max((cell["elapsed_ns"] for cell in cells.values()), default=0.0),
        hardware_stats={
            "per_service": {
                name: cell["hardware_stats"] for name, cell in cells.items()
            }
        },
        orchestrator_stats={
            "per_service": {
                name: cell["orchestrator_stats"] for name, cell in cells.items()
            }
        },
        utilizations={
            name: cell["utilizations"] for name, cell in cells.items()
        },
        offered_rps={
            name: cell["offered_rps"] for name, cell in cells.items()
        },
    )


def run_experiment(
    services: List[ServiceSpec], config: RunConfig
) -> ExperimentResult:
    """Run one measurement; merges per-service servers unless colocated."""
    if not config.colocated:
        cells = {
            spec.name: run_dedicated_service(spec, config, seed_offset=index)
            for index, spec in enumerate(services)
        }
        return combine_dedicated(config.architecture, cells)

    server = make_server(config)
    in_flight = drive(server, services, config)
    return ExperimentResult(
        architecture=config.architecture,
        services=_fold(server, services, config, in_flight),
        elapsed_ns=server.env.now,
        hardware_stats=server.hardware.stats(),
        orchestrator_stats=server.orchestrator.stats(),
        utilizations=server.hardware.accelerator_utilizations(),
        offered_rps={spec.name: config.offered_rps(spec) for spec in services},
    )


def run_unloaded(
    architecture: str,
    spec: ServiceSpec,
    requests: int = 20,
    seed: int = 0,
    machine_params: Optional[MachineParams] = None,
    orch_costs: Optional[OrchestrationCosts] = None,
    remotes: Optional[RemoteLatencies] = None,
    registry: Optional[TraceRegistry] = None,
    obs: Optional[ObsConfig] = None,
) -> ServiceResult:
    """Run requests one at a time (no contention; Fig 17 methodology)."""
    server = SimulatedServer(
        architecture,
        machine_params=machine_params,
        registry=registry,
        seed=seed,
        orch_costs=orch_costs,
        remotes=remotes,
        obs=obs,
    )
    result = ServiceResult(spec.name, warmup_fraction=0.0)

    def closed_loop(env):
        for _ in range(requests):
            request = server.make_request(spec)
            yield server.submit(request)
            result.record(request)

    server.env.process(closed_loop(server.env))
    server.env.run()
    return result


def saturation_throughput(
    architecture: str,
    spec: ServiceSpec,
    requests: int = 300,
    seed: int = 0,
    machine_params: Optional[MachineParams] = None,
    queue_policy: str = QueuePolicy.FIFO,
    registry: Optional[TraceRegistry] = None,
) -> float:
    """Sustainable completion rate (RPS) under a closed burst.

    All requests arrive almost at once; the completion span measures the
    server's drain rate, i.e. its saturation throughput.
    """
    server = SimulatedServer(
        architecture,
        machine_params=machine_params,
        registry=registry,
        seed=seed,
        queue_policy=queue_policy,
    )
    in_flight = []

    def burst(env):
        for _ in range(requests):
            yield env.timeout(50.0)  # effectively simultaneous
            request = server.make_request(spec)
            in_flight.append((request, server.submit(request)))

    server.env.process(burst(server.env))
    server.env.run()
    last_completion = max(r.complete_ns for r, _ in in_flight)
    if last_completion <= 0:
        return 0.0
    return requests / (last_completion * 1e-9)


def max_throughput_search(
    architecture: str,
    spec: ServiceSpec,
    slo_ns: float,
    requests: int = 250,
    seed: int = 0,
    lo_rps: float = 200.0,
    hi_rps: Optional[float] = None,
    iterations: int = 7,
    machine_params: Optional[MachineParams] = None,
    queue_policy: str = QueuePolicy.FIFO,
    unloaded_reference_ns: Optional[float] = None,
    probe_duration_s: float = 0.05,
    probe_cap: int = 1500,
    registry: Optional[TraceRegistry] = None,
) -> float:
    """Highest per-service load (RPS) whose P99 stays within the SLO.

    Two phases: a closed burst measures the saturation throughput to
    bracket the search; duration-based open-loop probes then binary
    search the SLO knee. A probe violates the SLO when its P99 exceeds
    ``slo_ns`` or any request is still unfinished at the horizon.
    """
    if hi_rps is None:
        capacity = saturation_throughput(
            architecture,
            spec,
            requests=max(100, requests // 2),
            seed=seed,
            machine_params=machine_params,
            queue_policy=queue_policy,
            registry=registry,
        )
        hi_rps = max(capacity * 1.2, lo_rps * 2)

    def violates(rate: float) -> bool:
        probe_requests = int(
            min(probe_cap, max(requests, rate * probe_duration_s))
        )
        config = RunConfig(
            architecture=architecture,
            requests_per_service=probe_requests,
            seed=seed,
            arrival_mode="poisson",
            rate_rps=rate,
            machine_params=machine_params,
            queue_policy=queue_policy,
            drain_ns=20e6,
            registry=registry,
            unloaded_reference_ns=(
                {spec.name: unloaded_reference_ns} if unloaded_reference_ns else {}
            ),
        )
        result = run_experiment([spec], config)
        if result.total_censored() > 0:
            return True
        return result.p99_ns(spec.name) > slo_ns

    if violates(lo_rps):
        return lo_rps
    lo, hi = lo_rps, hi_rps
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return lo
