"""Fluid (mean-field) approximation tier for the simulation substrate.

The exact DES kernel processes every request as a chain of discrete
events; at fleet scale (thousands of servers at 13.4K RPS each) that is
minutes of wall clock per simulated second. This module provides the
analytical complement: a :class:`FluidQueue` advances a queue's state as
a continuous *mass* of work under the M/M/k fluid limit, integrated in
closed form over fixed sim-time quanta by a :class:`FluidStepper`
process that coexists with exact discrete simulation on the same
:class:`~repro.sim.Environment`.

Model
-----
A queue holds ``x`` jobs (a float mass) served by ``k`` servers, each
completing work at rate ``mu`` (1/ns). Between arrival impulses the
mass obeys::

    dx/dt = -mu * min(x, k)

which is integrated *exactly* piecewise (linear drain while ``x > k``,
exponential decay below), so the stepper is unconditionally stable for
any quantum size and conserves mass to float precision. Latency
estimates come from the M/M/k closed form (Erlang-C waiting time at the
smoothed arrival-rate estimate) plus a transient term for backlog in
excess of the steady state — in steady state the estimator *is* the
textbook M/M/k result, which the validation harness
(``tests/sim/test_fluid_accuracy.py``) asserts property-style.

The cluster-side integration (which machines go fluid, calibration,
accounting) lives in :mod:`repro.cluster.fluid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .core import Environment

__all__ = [
    "erlang_b",
    "erlang_c",
    "mmk_steady_state",
    "MMKSteadyState",
    "FluidQueue",
    "FluidStepper",
]

#: EWMA smoothing of each queue's arrival-rate estimate.
_RATE_SMOOTHING = 0.3


def erlang_b(servers: int, offered: float) -> float:
    """Erlang-B blocking probability for ``offered`` Erlangs, ``servers``
    servers (stable iterative recurrence)."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered < 0:
        raise ValueError(f"offered load must be >= 0, got {offered}")
    if offered == 0.0:
        return 0.0
    b = 1.0
    for i in range(1, servers + 1):
        b = offered * b / (i + offered * b)
    return b


def erlang_c(servers: int, offered: float) -> float:
    """Erlang-C probability that an arriving job must wait (M/M/k).

    Only defined for stable queues (``offered < servers``); returns 1.0
    at or beyond saturation (every arrival waits).
    """
    if offered >= servers:
        return 1.0
    b = erlang_b(servers, offered)
    return servers * b / (servers - offered * (1.0 - b))


@dataclass(frozen=True)
class MMKSteadyState:
    """Closed-form M/M/k steady state at one operating point."""

    utilization: float  #: rho = lambda / (k mu), clipped to [0, 1]
    wait_probability: float  #: Erlang-C
    mean_wait_ns: float  #: E[Wq], inf when unstable
    mean_latency_ns: float  #: E[T] = E[Wq] + 1/mu, inf when unstable
    mean_jobs: float  #: E[N] = lambda E[T], inf when unstable


def mmk_steady_state(rate_per_ns: float, mu: float, servers: int) -> MMKSteadyState:
    """The M/M/k steady state for arrival rate ``rate_per_ns`` (1/ns),
    per-server service rate ``mu`` (1/ns) and ``servers`` servers."""
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")
    if rate_per_ns < 0:
        raise ValueError(f"arrival rate must be >= 0, got {rate_per_ns}")
    offered = rate_per_ns / mu
    rho = offered / servers
    if rho >= 1.0:
        return MMKSteadyState(1.0, 1.0, math.inf, math.inf, math.inf)
    c = erlang_c(servers, offered)
    mean_wait = c / (servers * mu - rate_per_ns)
    mean_latency = mean_wait + 1.0 / mu
    return MMKSteadyState(rho, c, mean_wait, mean_latency, rate_per_ns * mean_latency)


class FluidQueue:
    """One queue advanced analytically as continuous mass.

    Arrivals enter as impulses via :meth:`arrive`; :meth:`step` drains
    the mass in closed form up to the current sim time and accumulates
    throughput, busy-server and mass integrals plus a latency estimate
    for the mass completed in the step.
    """

    __slots__ = (
        "name",
        "servers",
        "mu",
        "mass",
        "arrived_mass",
        "completed_mass",
        "removed_mass",
        "latency_mass_ns",
        "busy_integral_ns",
        "mass_integral_ns",
        "rate_estimate",
        "_last_step_ns",
        "_pending_arrivals",
        "_start_ns",
    )

    def __init__(
        self,
        name: str,
        service_time_ns: float,
        servers: int = 1,
        start_ns: float = 0.0,
    ):
        if service_time_ns <= 0:
            raise ValueError(f"service time must be positive, got {service_time_ns}")
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.name = name
        self.servers = servers
        #: Per-server service rate (jobs per ns).
        self.mu = 1.0 / service_time_ns
        self.mass = 0.0
        self.arrived_mass = 0.0
        self.completed_mass = 0.0
        #: Mass withdrawn without completing (a fluid machine failed).
        self.removed_mass = 0.0
        #: Sum over steps of completed_mass_in_step * latency_estimate.
        self.latency_mass_ns = 0.0
        #: Integral of busy servers over time (server-ns).
        self.busy_integral_ns = 0.0
        #: Integral of jobs in system over time (job-ns); mean jobs via
        #: Little's law comparisons divides by elapsed time.
        self.mass_integral_ns = 0.0
        #: EWMA arrival-rate estimate (jobs per ns), fed by the stepper.
        self.rate_estimate = 0.0
        self._last_step_ns = start_ns
        self._start_ns = start_ns
        self._pending_arrivals = 0.0

    # -- intake ------------------------------------------------------------
    def arrive(self, mass: float = 1.0) -> None:
        """Add ``mass`` jobs to the queue (an arrival impulse)."""
        if mass < 0:
            raise ValueError(f"arrival mass must be >= 0, got {mass}")
        self.mass += mass
        self.arrived_mass += mass
        self._pending_arrivals += mass

    def remove_mass(self, mass: float) -> float:
        """Withdraw up to ``mass`` jobs (a fluid machine failed).

        Returns the mass actually removed.
        """
        taken = min(mass, self.mass)
        self.mass -= taken
        self.removed_mass += taken
        return taken

    # -- integration -------------------------------------------------------
    def step(self, now_ns: float) -> float:
        """Advance the queue to ``now_ns``; returns mass completed.

        Exact piecewise integration of ``dx/dt = -mu min(x, k)``: a
        linear segment while the backlog exceeds the server count, then
        exponential decay. Both segments contribute their closed-form
        busy and mass integrals, so utilization and Little's-law
        comparisons are free of time-discretization error.
        """
        dt = now_ns - self._last_step_ns
        if dt < 0:
            raise ValueError(f"step backwards: {now_ns} < {self._last_step_ns}")
        # Update the smoothed arrival-rate estimate from the impulses
        # that landed since the previous step.
        if dt > 0:
            instant = self._pending_arrivals / dt
            self.rate_estimate += _RATE_SMOOTHING * (instant - self.rate_estimate)
            self._pending_arrivals = 0.0
        x0 = self.mass
        x = x0
        k = float(self.servers)
        mu = self.mu
        remaining = dt
        if x > k:
            # Linear drain at full capacity until the backlog reaches k.
            t_hit = (x - k) / (k * mu)
            seg = min(t_hit, remaining)
            x_end = x - k * mu * seg
            self.busy_integral_ns += k * seg
            self.mass_integral_ns += 0.5 * (x + x_end) * seg
            x = x_end
            remaining -= seg
        if remaining > 0 and x > 0:
            # Exponential decay: every job is in service, so the busy
            # and mass integrals coincide and equal drained/mu.
            x_end = x * math.exp(-mu * remaining)
            drained = x - x_end
            self.busy_integral_ns += drained / mu
            self.mass_integral_ns += drained / mu
            x = x_end
        completed = x0 - x
        self.mass = x
        self._last_step_ns = now_ns
        if completed > 0:
            self.completed_mass += completed
            self.latency_mass_ns += completed * self.latency_estimate_ns()
        return completed

    # -- estimators --------------------------------------------------------
    def latency_estimate_ns(self) -> float:
        """Mean-latency estimate at the current operating point.

        Steady state: the M/M/k closed form at the smoothed arrival
        rate. Transient: backlog in excess of the steady-state job
        count drains at full capacity and is charged as extra wait.
        """
        steady = mmk_steady_state(self.rate_estimate, self.mu, self.servers)
        if math.isinf(steady.mean_latency_ns):
            # Saturated: service time plus time to drain the backlog.
            return 1.0 / self.mu + self.mass / (self.servers * self.mu)
        excess = max(0.0, self.mass - steady.mean_jobs)
        return steady.mean_latency_ns + excess / (self.servers * self.mu)

    def utilization(self, now_ns: float) -> float:
        """Time-averaged busy-server fraction since construction."""
        elapsed = now_ns - self._start_ns
        if elapsed <= 0:
            return 0.0
        return self.busy_integral_ns / (self.servers * elapsed)

    def mean_jobs(self, now_ns: float) -> float:
        """Time-averaged jobs in system since construction."""
        elapsed = now_ns - self._start_ns
        if elapsed <= 0:
            return 0.0
        return self.mass_integral_ns / elapsed

    def mean_latency_ns(self) -> float:
        """Completion-weighted mean of the per-step latency estimates."""
        if self.completed_mass <= 0:
            return 0.0
        return self.latency_mass_ns / self.completed_mass

    def __repr__(self) -> str:
        return (
            f"FluidQueue({self.name}, mass={self.mass:.2f}, "
            f"k={self.servers}, mu={self.mu:.3g}/ns)"
        )


class FluidStepper:
    """Simulation process advancing registered fluid queues on a fixed
    sim-time quantum, with an optional per-step hook (the cluster uses
    it for tier changes and accounting)."""

    def __init__(
        self,
        env: Environment,
        quantum_ns: float,
        until_ns: Optional[float] = None,
        on_step: Optional[Callable[[float], None]] = None,
    ):
        if quantum_ns <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_ns}")
        self.env = env
        self.quantum_ns = quantum_ns
        #: Stop stepping after this sim time (None = run until stopped;
        #: only safe when the surrounding run has its own horizon).
        self.until_ns = until_ns
        self.on_step = on_step
        self.queues: List[FluidQueue] = []
        self._queues_by_name: Dict[str, FluidQueue] = {}
        self.steps = 0
        self._stopped = False
        self._process = None

    def register(self, queue: FluidQueue) -> FluidQueue:
        self.queues.append(queue)
        self._queues_by_name[queue.name] = queue
        return queue

    def queue(self, name: str) -> FluidQueue:
        return self._queues_by_name[name]

    def start(self):
        """Launch the stepping process (idempotent)."""
        if self._process is None:
            self._process = self.env.process(self._run(), name="fluid-stepper")
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        env = self.env
        while not self._stopped:
            if self.until_ns is not None and env.now >= self.until_ns:
                break
            yield env.timeout(self.quantum_ns)
            now = env.now
            for queue in self.queues:
                queue.step(now)
            self.steps += 1
            if self.on_step is not None:
                self.on_step(now)
