"""One simulated server: hardware + orchestrator + cost model, wired up."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.registry import TraceRegistry
from ..hw.accelerator import QueuePolicy
from ..hw.ensemble import ServerHardware
from ..hw.params import MachineParams
from ..orchestration import make_orchestrator
from ..sim import Environment, RandomStreams
from ..workloads.calibration import (
    BranchProbabilities,
    OrchestrationCosts,
    RemoteLatencies,
)
from ..workloads.costs import CostModel
from ..workloads.spec import ServiceSpec
from ..workloads.request import Request, RequestSampler

if TYPE_CHECKING:  # pragma: no cover - the optional planes load on use
    from ..faults.config import FaultConfig
    from ..faults.plane import FaultPlane
    from ..obs.config import ObsConfig
    from ..obs.metrics import MetricsRegistry
    from ..obs.span import SpanTracer

__all__ = ["SimulatedServer"]


class SimulatedServer:
    """A 36-core server with the nine-accelerator ensemble.

    Pass ``env`` to place several servers in one simulation (the
    cluster subsystem runs a whole fleet on a shared event calendar);
    by default each server owns a fresh :class:`Environment`.
    """

    def __init__(
        self,
        architecture: str,
        machine_params: Optional[MachineParams] = None,
        registry: Optional[TraceRegistry] = None,
        seed: int = 0,
        queue_policy: str = QueuePolicy.FIFO,
        orch_costs: Optional[OrchestrationCosts] = None,
        remotes: Optional[RemoteLatencies] = None,
        branch_probs: Optional[BranchProbabilities] = None,
        obs: Optional[ObsConfig] = None,
        env: Optional[Environment] = None,
        faults: Optional[FaultConfig] = None,
    ):
        self.architecture = architecture
        self.params = machine_params or MachineParams()
        self.registry = registry or TraceRegistry.with_standard_templates()
        self.obs = obs
        self.env = env if env is not None else Environment()
        self.tracer: Optional[SpanTracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.bus = None
        if obs is not None:
            session = obs.make_session(self.env)
            self.tracer = session.tracer
            self.metrics = session.registry
            self.bus = session.bus
        self.streams = RandomStreams(seed)
        self.hardware = ServerHardware(
            self.env,
            self.params,
            self.streams,
            queue_policy=queue_policy,
            tracer=self.tracer,
        )
        #: The fault plane is only instantiated when the config actually
        #: injects something; with zero rates (or faults=None) every code
        #: path and RNG draw matches the fault-free simulator exactly.
        self.fault_plane: Optional[FaultPlane] = None
        if faults is not None and faults.enabled:
            from ..faults.plane import FaultPlane

            self.fault_plane = FaultPlane(self.env, faults, self.streams)
            self.fault_plane.bus = self.bus
            self.fault_plane.attach(self.hardware)
        self.cost_model = CostModel(self.registry, generation=self.params.generation)
        self.orchestrator = make_orchestrator(
            architecture,
            self.env,
            self.hardware,
            self.registry,
            self.cost_model,
            self.streams,
            orch_costs=orch_costs,
            remotes=remotes,
            tracer=self.tracer,
            fault_plane=self.fault_plane,
        )
        self.orchestrator.bus = self.bus
        if self.orchestrator.recovery is not None:
            self.orchestrator.recovery.bus = self.bus
        self._sampler = RequestSampler(self.streams, branch_probs)
        self._inflight = 0
        self._completed = 0
        if self.metrics is not None:
            self._register_gauges()
            self.metrics.start()

    def _register_gauges(self) -> None:
        """Default time series: queues, utilization, in-flight, RPS."""
        registry = self.metrics
        registry.gauge("inflight", lambda: float(self._inflight))
        registry.rate_gauge("rps", lambda: float(self._completed))
        registry.gauge("cores_busy", lambda: float(self.hardware.cores.in_use))
        for kind, instances in self.hardware.instances.items():
            registry.gauge(
                f"qdepth:{kind.value}",
                lambda insts=instances: float(
                    sum(a.input_occupancy for a in insts)
                ),
            )
            registry.gauge(
                f"util:{kind.value}",
                lambda k=kind: self.hardware.busy_pe_fraction(k),
            )
        fabric = self.hardware.fabric
        if fabric is not None:
            for placement in sorted(fabric.hop_transfers, key=lambda p: p.value):
                registry.gauge(
                    f"placement:hops:{placement.value}",
                    lambda f=fabric, p=placement: float(f.hop_transfers[p]),
                )
                registry.gauge(
                    f"placement:inflight:{placement.value}",
                    lambda f=fabric, p=placement: f.in_flight(p),
                )
        plane = self.fault_plane
        if plane is not None:
            registry.gauge(
                "faults:injected", lambda p=plane: float(p.total_injected())
            )
            recovery = self.orchestrator.recovery
            if recovery is not None:
                registry.gauge(
                    "faults:watchdog_timeouts",
                    lambda r=recovery: float(r.watchdog_timeouts),
                )
                registry.gauge(
                    "faults:open_breakers",
                    lambda r=recovery: float(r.open_breakers()),
                )
                registry.gauge(
                    "faults:degraded_to_cpu",
                    lambda r=recovery: float(r.degraded_to_cpu),
                )

    def make_request(self, spec: ServiceSpec) -> Request:
        """Sample a new request: payload fields + wire size."""
        return self._sampler.sample(spec, self.env.now)

    def submit(self, request: Request):
        """Start executing ``request``; returns its completion process."""
        tracer = self.tracer
        if tracer is not None and tracer.sample_request(request):
            tracer.instant(
                "arrival",
                f"req:{request.spec.name}",
                rid=request.rid,
                args={"wire_size": request.wire_size},
            )
        process = self.env.process(
            self.orchestrator.execute_request(request),
            name=f"req-{request.rid}",
        )
        if self.metrics is not None:
            self._inflight += 1
            process.callbacks.append(self._request_retired)
        return process

    def _request_retired(self, _event) -> None:
        self._inflight -= 1
        self._completed += 1
