"""Cluster integration of the fluid tier: config, calibration, accounting.

:class:`FluidTier` is the bridge between the analytical machinery in
:mod:`repro.sim.fluid` and the exact cluster simulation: the machines
named in ``FluidConfig.fluid_machines`` go fluid once the tier is
calibrated, requests routed to them are absorbed as fluid mass, and
the tier owns the per-(machine, service)
:class:`~repro.sim.fluid.FluidQueue` shims. Going fluid needs no
handoff: future arrivals are absorbed as mass at the front door, and
in-flight discrete requests finish exactly. A machine never returns
from fluid to exact. The batched fast path splits arrivals from its
own CRN stream (``fluid/batch-split``), so adding the tier never
perturbs the pre-existing streams.

Calibration: the fluid model needs a per-service service rate ``mu``.
Machines start exact; the cluster feeds every exact completion's
latency into the tier, and once each service has
``calibrate_requests`` samples (or an explicit ``service_time_ns``
override) the fluid machines go fluid. The calibrated mean latency
doubles as ``1/mu`` and the calibration sample's p99/mean ratio shapes
the fluid tier's p99 estimate.

Approximations (documented; the validation harness
``tests/sim/test_fluid_accuracy.py`` bounds their effect):

* A fluid machine is one M/M/k queue per service with
  :data:`MMK_SERVERS` shared servers; cross-service contention on a
  machine is not modelled.
* Fluid mass bypasses per-request admission and balancer policy
  detail (batched arrivals split by machine count).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..sim import percentile
from ..sim.fluid import FluidQueue, FluidStepper
from ..workloads.request import Request
from ..workloads.spec import ServiceSpec

__all__ = ["FluidConfig", "FluidTier", "FLUID_TOLERANCES", "QUANTUM_NS"]

#: Documented fluid-vs-exact accuracy bands (fractional error) that the
#: differential harness asserts and ``docs/performance.md`` quotes.
#: Keyed by comparison metric; see ``tests/sim/test_fluid_accuracy.py``.
FLUID_TOLERANCES = {
    "throughput": 0.05,
    "mean_latency": 0.25,
    "utilization": 0.25,
}

#: Servers of the per-(machine, service) M/M/k model. Matches the paper
#: server's 36 cores; latency is insensitive to it at the low
#: utilizations where the fluid tier is accurate.
MMK_SERVERS = 36

#: Sim-time quantum (ns) of the fluid stepper, and of the batched
#: arrival source and the drain wait that step with it.
QUANTUM_NS = 0.25e6


@dataclass(frozen=True)
class FluidConfig:
    """Configuration of the cluster's fluid-approximation tier.

    Presence of a ``FluidConfig`` on a :class:`ClusterConfig` enables
    the tier; an empty ``fluid_machines`` is the degenerate all-exact
    setup (byte-identical to ``fluid=None``, asserted by the validation
    harness).
    """

    #: Machine indices that go fluid once the tier is calibrated.
    fluid_machines: Tuple[int, ...] = ()
    #: Exact completions per service required before machines may go
    #: fluid (ignored for services with a ``service_time_ns`` override).
    calibrate_requests: int = 25
    #: Explicit per-service mean service time (ns); skips calibration.
    service_time_ns: Mapping[str, float] = dataclass_field(default_factory=dict)
    #: Generate arrivals in per-quantum Poisson batches instead of one
    #: timeout per request — the fleet-scale fast path. Changes the
    #: arrival stream, so accuracy comparisons use ``batched=False``.
    batched: bool = False


class FluidTier:
    """Runtime coordinator of the fluid tier inside one cluster."""

    def __init__(self, cluster, config: FluidConfig):
        self.cluster = cluster
        self.config = config
        self.stepper: Optional[FluidStepper] = None
        self._specs: Dict[str, ServiceSpec] = {}
        #: (machine index, service name) -> FluidQueue
        self.queues: Dict[Tuple[int, str], FluidQueue] = {}
        #: Indices of the machines running fluid right now.
        self._fluid: Set[int] = set()
        #: Calibration latency samples per service (exact completions).
        self._calibration: Dict[str, List[float]] = {}
        self._service_time: Dict[str, float] = dict(config.service_time_ns)
        self._p99_ratio: Dict[str, float] = {}
        self._last_eval_ns = 0.0
        # Dedicated CRN stream: adding the fluid tier must not perturb
        # any pre-existing stream.
        self._batch_stream = cluster.streams.stream("fluid/batch-split")
        # Counters / accounting (absorbed is a float: batched arrivals
        # spread fractional mass across machines).
        self.absorbed = 0.0
        self.tier_flips = 0
        self.lost_mass = 0.0
        self._fraction_integral_ns = 0.0
        self._fraction_elapsed_ns = 0.0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def start(self, services: List[ServiceSpec], until_ns: float) -> None:
        """Begin stepping; called by the driver once the horizon is known."""
        self._specs = {spec.name: spec for spec in services}
        for name in self._specs:
            self._calibration.setdefault(name, [])
        self.stepper = FluidStepper(
            self.cluster.env,
            quantum_ns=QUANTUM_NS,
            until_ns=until_ns,
            on_step=self._on_step,
        )
        self._last_eval_ns = self.cluster.env.now
        self.stepper.start()

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def observe_exact(self, service: str, latency_ns: float) -> None:
        """Feed an exact completion into the calibration set."""
        samples = self._calibration.setdefault(service, [])
        if len(samples) < max(self.config.calibrate_requests, 2):
            samples.append(latency_ns)

    def service_time(self, service: str) -> float:
        """Calibrated (or overridden) mean service time for ``service``."""
        override = self._service_time.get(service)
        if override is not None:
            return override
        samples = self._calibration.get(service, ())
        if not samples:
            raise KeyError(f"service {service!r} is not calibrated yet")
        mean = sum(samples) / len(samples)
        self._service_time[service] = mean  # freeze on first use
        self._p99_ratio[service] = percentile(sorted(samples), 99.0) / mean
        return mean

    def p99_ratio(self, service: str) -> float:
        """p99/mean shape ratio from the calibration samples (>= 1)."""
        return max(1.0, self._p99_ratio.get(service, 1.0))

    def _service_calibrated(self, service: str) -> bool:
        if service in self._service_time:
            return True
        samples = self._calibration.get(service, ())
        return len(samples) >= self.config.calibrate_requests

    def ready(self) -> bool:
        """True once every known service can be modelled analytically."""
        if not self._specs:
            return False
        return all(self._service_calibrated(name) for name in self._specs)

    # ------------------------------------------------------------------
    # Tier state
    # ------------------------------------------------------------------
    def is_fluid(self, machine) -> bool:
        return machine.index in self._fluid

    def fluid_fraction(self) -> float:
        """Instantaneous fraction of live machines running fluid."""
        active = self.cluster.routable_machines()
        if not active:
            return 0.0
        fluid = sum(1 for m in active if self.is_fluid(m))
        return fluid / len(active)

    def mean_fluid_fraction(self) -> float:
        """Time-weighted fluid fraction over the run."""
        if self._fraction_elapsed_ns <= 0:
            return 0.0
        return self._fraction_integral_ns / self._fraction_elapsed_ns

    def total_mass(self) -> float:
        return sum(queue.mass for queue in self.queues.values())

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def _queue_for(self, machine_index: int, service: str) -> FluidQueue:
        key = (machine_index, service)
        queue = self.queues.get(key)
        if queue is None:
            queue = FluidQueue(
                f"m{machine_index}/{service}",
                service_time_ns=self.service_time(service),
                servers=MMK_SERVERS,
                start_ns=self.cluster.env.now,
            )
            self.queues[key] = queue
        return queue

    def absorb(self, machine, request: Request) -> None:
        """Absorb one front-door request into the machine's fluid mass."""
        self._queue_for(machine.index, request.spec.name).arrive(1.0)
        self.absorbed += 1
        machine.fluid_mass += 1.0

    def absorb_mass(self, machine, spec: ServiceSpec, mass: float) -> None:
        """Absorb ``mass`` batched arrivals at once (fleet fast path)."""
        if mass <= 0:
            return
        self._queue_for(machine.index, spec.name).arrive(mass)
        self.absorbed += mass
        machine.fluid_mass += mass

    def on_machine_failed(self, machine) -> None:
        """A fluid machine died: its queued mass is lost work."""
        for (index, _service), queue in self.queues.items():
            if index == machine.index and queue.mass > 0:
                self.lost_mass += queue.mass
                queue.remove_mass(queue.mass)
        machine.fluid_mass = 0.0
        self._fluid.discard(machine.index)

    # ------------------------------------------------------------------
    # Per-quantum evaluation (stepper hook)
    # ------------------------------------------------------------------
    def _on_step(self, now_ns: float) -> None:
        # Register queues created since the last step with the stepper.
        stepper = self.stepper
        registered = len(stepper.queues)
        if registered < len(self.queues):
            known = set(id(q) for q in stepper.queues)
            for key in sorted(self.queues):
                queue = self.queues[key]
                if id(queue) not in known:
                    queue.step(now_ns)
                    stepper.register(queue)
        dt = now_ns - self._last_eval_ns
        self._last_eval_ns = now_ns
        # ``ready`` only ever turns true, so a fluid machine stays fluid.
        ready = self.ready()
        active = self.cluster.routable_machines()
        fluid_count = 0
        for machine in active:
            if ready and machine.index in self.config.fluid_machines:
                if machine.index not in self._fluid:
                    self._fluid.add(machine.index)
                    self.tier_flips += 1
                fluid_count += 1
            # Refresh the occupancy signal the balancer reads.
            machine.fluid_mass = sum(
                queue.mass
                for (index, _s), queue in self.queues.items()
                if index == machine.index
            )
        if dt > 0 and active:
            self._fraction_integral_ns += dt * (fluid_count / len(active))
            self._fraction_elapsed_ns += dt

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def service_summary(self, service: str) -> Dict[str, float]:
        """Aggregate fluid-tier estimates for one service."""
        completed = 0.0
        latency_mass = 0.0
        residual = 0.0
        arrived = 0.0
        for (_index, name), queue in self.queues.items():
            if name != service:
                continue
            completed += queue.completed_mass
            latency_mass += queue.latency_mass_ns
            residual += queue.mass
            arrived += queue.arrived_mass
        mean_latency = latency_mass / completed if completed > 0 else 0.0
        return {
            "arrived_mass": arrived,
            "completed_mass": completed,
            "residual_mass": residual,
            "mean_latency_ns": mean_latency,
            "est_p99_ns": mean_latency * self.p99_ratio(service),
        }

    def mass_integral_ns(self) -> float:
        """Sum of the jobs-in-system integrals (for Little's-law
        comparisons against the exact tier)."""
        return sum(queue.mass_integral_ns for queue in self.queues.values())

    def stats(self) -> Dict[str, object]:
        return {
            "absorbed": self.absorbed,
            "tier_flips": self.tier_flips,
            "lost_mass": self.lost_mass,
            "residual_mass": self.total_mass(),
            "mass_integral_ns": self.mass_integral_ns(),
            "fluid_fraction": self.fluid_fraction(),
            "mean_fluid_fraction": self.mean_fluid_fraction(),
            "steps": self.stepper.steps if self.stepper is not None else 0,
            "services": {
                name: self.service_summary(name) for name in sorted(self._specs)
            },
        }
