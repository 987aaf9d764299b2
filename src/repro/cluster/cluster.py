"""A fleet of simulated servers behind one load-balancing front door.

:class:`SimulatedCluster` owns a single shared
:class:`~repro.sim.Environment` and a growable list of
:class:`~repro.cluster.machine.ClusterMachine` members, each wrapping a
full :class:`~repro.server.SimulatedServer` seeded independently via
:func:`repro.sim.derive_seed`. In front of the fleet sit, in order:

1. **admission control** (optional) — shed or degrade arrivals while
   the predicted P99 exceeds the SLO target;
2. the **balancer policy** — pick a routable machine;
3. the **request lifecycle** — dispatch, and on a machine failure
   reroute the interrupted request to a survivor (bounded retries).

Scheduled :class:`MachineFailure` events kill machines mid-run, and
the request lifecycle reroutes their in-flight work. Cluster-level
observability (fleet gauges, control-plane facts on the telemetry bus)
plugs into the same :class:`~repro.obs.ObsConfig` switchboard as
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs.telemetry import AdmissionEvent, FaultInjected, Marker, RequestEnd
from ..server.machine import SimulatedServer
from ..sim import Environment, Interrupt, Process, RandomStreams, derive_seed
from ..workloads.request import Request, RequestSampler
from ..workloads.spec import ServiceSpec
from .admission import AdmissionController, AdmissionDecision
from .balancer import make_balancer
from .health import HealthMonitor
from .machine import ClusterMachine, MachineState

if TYPE_CHECKING:  # pragma: no cover - metrics and the fluid tier load on use
    from ..obs.metrics import MetricsRegistry

__all__ = ["MachineFailure", "SimulatedCluster", "RequestStatus"]

#: Reroute attempts after machine failures before a request is lost.
MAX_REROUTES = 2


@dataclass(frozen=True)
class MachineFailure:
    """Kill machine ``machine`` (by index) at sim time ``at_ns``."""

    at_ns: float
    machine: int


class RequestStatus:
    """Terminal status of one request's cluster lifecycle."""

    OK = "ok"
    SHED = "shed"
    LOST = "lost"
    #: Absorbed into the fluid tier as queue mass; completion and
    #: latency are accounted analytically (see repro.cluster.fluid).
    FLUID = "fluid"


class SimulatedCluster:
    """Many servers, one event calendar, one front door."""

    def __init__(self, config):
        self.config = config
        # One environment for the whole fleet: machines interleave on a
        # single event calendar, so cross-machine timing is coherent.
        self.env = Environment()
        self.streams = RandomStreams(derive_seed(config.seed, "cluster"))
        self.machines: List[ClusterMachine] = []
        self._machine_counter = 0
        self.balancer = make_balancer(
            config.policy, self.streams.stream("balancer")
        )
        self.admission = (
            AdmissionController(config.admission) if config.admission else None
        )
        #: The fluid-approximation tier, when configured (its CRN
        #: streams are dedicated, so enabling it never perturbs the
        #: draws of the exact simulation).
        self.fluid = None
        if config.fluid is not None:
            from .fluid import FluidTier

            self.fluid = FluidTier(self, config.fluid)
        #: Machine health scoring + lame-duck ejection (RNG-free, so
        #: installing it keeps the run CRN-aligned with a bare fleet).
        self.health = (
            HealthMonitor(self, config.health)
            if config.health is not None
            else None
        )

        # Front-door request sampling (cluster-level streams, so the
        # request sequence is identical across balancer policies —
        # common random numbers for policy comparisons).
        self._sampler = RequestSampler(self.streams, config.branch_probs)

        # Counters.
        self.total_arrivals = 0
        self.completed = 0
        self.shed = 0
        self.degraded = 0
        self.rerouted = 0
        self.lost = 0
        self.machines_failed = 0
        self.peak_machines = 0

        # Cluster-level observability: fleet gauges, and the bus that
        # carries control-plane facts (a session tracer draws them).
        self.metrics: Optional[MetricsRegistry] = None
        self.bus = None
        obs = config.obs
        if obs is not None:
            session = obs.make_session(self.env)
            self.metrics = session.registry
            self.bus = session.bus

        for _ in range(config.machines):
            self.add_machine()
        for failure in config.failures:
            self.env.process(
                self._failure_process(failure), name="machine-failure"
            )
        if self.metrics is not None:
            self._register_gauges()
            self.metrics.start()

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    def add_machine(self) -> ClusterMachine:
        """Add a machine; it is routable at once."""
        index = self._machine_counter
        self._machine_counter += 1
        config = self.config
        server = SimulatedServer(
            config.architecture,
            machine_params=config.machine_params_for(index),
            registry=config.registry,
            seed=derive_seed(config.seed, "machine", index),
            queue_policy=config.queue_policy,
            orch_costs=config.orch_costs,
            remotes=config.remotes,
            branch_probs=config.branch_probs,
            env=self.env,
            faults=config.faults,
        )
        machine = ClusterMachine(index, server)
        self.machines.append(machine)
        self.peak_machines = max(
            self.peak_machines, len(self.routable_machines())
        )
        if self.bus is not None:
            self.bus.publish(
                Marker(
                    t_ns=self.env.now,
                    name="machine-added",
                    args={"machine": index},
                )
            )
        return machine

    def fail_machine(self, index: int) -> int:
        """Kill the machine with fleet index ``index`` right now."""
        machine = self.machine(index)
        if machine.state == MachineState.DEAD:
            return 0
        victims = machine.fail()
        self.machines_failed += 1
        if self.fluid is not None:
            self.fluid.on_machine_failed(machine)
        if self.bus is not None:
            self.bus.publish(
                FaultInjected(
                    t_ns=self.env.now,
                    category="machine-failure",
                    args={"machine": index, "inflight": victims},
                )
            )
        return victims

    def machine(self, index: int) -> ClusterMachine:
        for machine in self.machines:
            if machine.index == index:
                return machine
        raise KeyError(f"no machine with index {index}")

    def routable_machines(self) -> List[ClusterMachine]:
        """Machines the balancer may currently target: the live ones."""
        return [m for m in self.machines if m.routable]

    def _failure_process(self, failure: MachineFailure):
        yield self.env.timeout(failure.at_ns)
        self.fail_machine(failure.machine)

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def make_request(self, spec: ServiceSpec) -> Request:
        """Sample a request at the front door (cluster-level streams)."""
        return self._sampler.sample(spec, self.env.now)

    def submit(self, request: Request) -> Process:
        """Run one request through admission, balancing and execution.

        The returned process terminates with ``(status, request)`` where
        ``status`` is a :class:`RequestStatus` and ``request`` is the
        (possibly rerouted clone of the) request that reached its
        terminal state.
        """
        self.total_arrivals += 1
        return self.env.process(
            self._lifecycle(request), name=f"clreq-{request.rid}"
        )

    def submit_batch(self, spec: ServiceSpec, count: int) -> List:
        """Admit ``count`` simultaneous arrivals (batched fluid path).

        The batch is split between the exact and fluid sub-fleets in
        proportion to machine counts (a binomial draw from a dedicated
        CRN stream); the exact share runs full per-request lifecycles
        and is returned as ``(service, arrival_ns, process)`` sink
        entries, the fluid share enters the tier as mass spread evenly
        over the fluid machines.
        """
        if count <= 0:
            return []
        fluid = self.fluid
        machines = self.routable_machines()
        fluid_machines = (
            [m for m in machines if fluid.is_fluid(m)] if fluid is not None else []
        )
        exact_machines = [m for m in machines if m not in fluid_machines]
        n_exact = count
        if fluid_machines:
            if exact_machines:
                share = len(exact_machines) / len(machines)
                n_exact = fluid._batch_stream.binomial(count, share)
            else:
                n_exact = 0
        entries = []
        for _ in range(n_exact):
            request = self.make_request(spec)
            entries.append((spec.name, request.arrival_ns, self.submit(request)))
        n_fluid = count - n_exact
        if n_fluid > 0:
            self.total_arrivals += n_fluid
            mass = n_fluid / len(fluid_machines)
            for machine in fluid_machines:
                fluid.absorb_mass(machine, spec, mass)
        return entries

    def _lifecycle(self, request: Request):
        # The id the request arrived with: reroute clones get fresh ids
        # for machine-level accounting, but every front-door terminal
        # event reports under the original so awaiting callers (the
        # serving façade) can match it.
        front_rid = request.rid
        if self.admission is not None:
            decision = self.admission.decide(request)
            if decision == AdmissionDecision.SHED:
                self.shed += 1
                if self.bus is not None:
                    self.bus.publish(
                        AdmissionEvent(
                            t_ns=self.env.now,
                            service=request.spec.name,
                            decision="shed",
                            rid=front_rid,
                        )
                    )
                    self.bus.publish(
                        RequestEnd(
                            t_ns=self.env.now,
                            service=request.spec.name,
                            latency_ns=0.0,
                            ok=False,
                            status=RequestStatus.SHED,
                            rid=front_rid,
                        )
                    )
                return (RequestStatus.SHED, request)
            if decision == AdmissionDecision.DEGRADE:
                self.degraded += 1
                if self.bus is not None:
                    self.bus.publish(
                        AdmissionEvent(
                            t_ns=self.env.now,
                            service=request.spec.name,
                            decision="degrade",
                            rid=front_rid,
                        )
                    )
        attempts = 0
        while True:
            machines = self.routable_machines()
            if not machines:
                return self._give_up(request, front_rid)
            if self.health is not None:
                # Lame ducks leave the *candidate set*, not the fleet:
                # capacity accounting still sees them.
                machines = self.health.filter_routable(machines)
            machine = self.balancer.pick(machines, request)
            if self.fluid is not None and self.fluid.is_fluid(machine):
                # Absorb into the fluid tier: the request becomes queue
                # mass and its completion is accounted analytically.
                self.fluid.absorb(machine, request)
                return (RequestStatus.FLUID, request)
            proc = machine.submit(request)
            try:
                yield proc
            except Interrupt:
                # The machine died under this request: reroute a fresh
                # attempt (bounded) to whoever is still standing.
                attempts += 1
                self.rerouted += 1
                if attempts > MAX_REROUTES:
                    return self._give_up(request, front_rid)
                request = self._clone_for_retry(request)
                continue
            self.completed += 1
            if self.admission is not None:
                self.admission.observe(request.latency_ns)
            if self.health is not None:
                self.health.observe(
                    machine,
                    request.latency_ns,
                    ok=not (request.error or request.timed_out),
                )
            if self.fluid is not None:
                self.fluid.observe_exact(request.spec.name, request.latency_ns)
            if self.bus is not None:
                self.bus.publish(
                    RequestEnd(
                        t_ns=self.env.now,
                        service=request.spec.name,
                        latency_ns=request.latency_ns,
                        ok=not (request.error or request.timed_out),
                        error=request.error,
                        timed_out=request.timed_out,
                        fell_back=request.fell_back,
                        rid=front_rid,
                    )
                )
            return (RequestStatus.OK, request)

    def _give_up(self, request: Request, front_rid: Optional[int] = None):
        """Terminate a request that cannot be (re)placed: hard error."""
        request.error = True
        request.timed_out = True
        request.complete_ns = self.env.now
        self.lost += 1
        if self.bus is not None:
            self.bus.publish(
                RequestEnd(
                    t_ns=self.env.now,
                    service=request.spec.name,
                    latency_ns=request.latency_ns,
                    ok=False,
                    error=True,
                    timed_out=True,
                    status=RequestStatus.LOST,
                    rid=front_rid if front_rid is not None else request.rid,
                )
            )
        return (RequestStatus.LOST, request)

    def _clone_for_retry(self, request: Request) -> Request:
        """A fresh attempt that keeps the original arrival time, so the
        recorded latency honestly includes the failover penalty."""
        clone = Request(
            request.spec,
            arrival_ns=request.arrival_ns,
            state=dict(request.state),
            wire_size=request.wire_size,
            tenant=request.tenant,
            priority=request.priority,
        )
        return clone

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        registry = self.metrics
        registry.gauge(
            "cluster:machines", lambda: float(len(self.routable_machines()))
        )
        registry.gauge(
            "cluster:outstanding",
            lambda: float(sum(m.outstanding_count for m in self.machines)),
        )
        registry.gauge(
            "cluster:pressure",
            lambda: sum(m.queue_pressure() for m in self.routable_machines()),
        )
        registry.rate_gauge("cluster:rps", lambda: float(self.completed))
        registry.rate_gauge("cluster:shed_rps", lambda: float(self.shed))
        if self.fluid is not None:
            # Registered only when the tier exists so a fluid-free run's
            # telemetry stream is untouched.
            registry.gauge(
                "cluster:fluid_fraction", lambda: self.fluid.fluid_fraction()
            )
            registry.gauge(
                "cluster:fluid_mass", lambda: self.fluid.total_mass()
            )
        if self.health is not None:
            registry.gauge(
                "cluster:health_ejected",
                lambda: float(self.health.counts()["ejected"]),
            )
            registry.gauge(
                "cluster:health_trial",
                lambda: float(self.health.counts()["trial"]),
            )
            registry.gauge(
                "cluster:health_ejections",
                lambda: float(self.health.ejections),
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "arrivals": self.total_arrivals,
            "completed": self.completed,
            "shed": self.shed,
            "degraded": self.degraded,
            "rerouted": self.rerouted,
            "lost": self.lost,
            "machines_failed": self.machines_failed,
            "peak_machines": self.peak_machines,
            "machines": [m.stats() for m in self.machines],
            "admission": (
                self.admission.stats() if self.admission is not None else None
            ),
            "fluid": self.fluid.stats() if self.fluid is not None else None,
            "health": self.health.stats() if self.health is not None else None,
        }
