"""Machine health scoring and lame-duck ejection for the fleet.

Fail-stop machine deaths are easy — :class:`~repro.cluster.machine.
ClusterMachine` goes ``DEAD`` and the balancer never sees it again.
Gray failures (:mod:`repro.faults.plane`) are the hard case: a limping
machine keeps accepting work and keeps completing it, just slowly, so
every balancer policy that weighs *occupancy* keeps feeding it and the
fleet P99 quietly doubles. The :class:`HealthMonitor` closes that gap:

* **passive signals** — every completion observed at the front door
  updates per-machine EWMAs of latency and error rate;
* **active probes** — an optional bounded prober reads each machine's
  instantaneous :meth:`~repro.cluster.machine.ClusterMachine.
  queue_pressure`, catching machines too wedged to complete anything
  (a passive-only monitor starves on exactly the machines it most
  needs to eject);
* **hysteresis** — a machine is ejected from the balancer candidate
  set only after ``eject_after`` consecutive unhealthy signals, sits
  out ``readmit_after_ns``, then re-enters as a *trial*: it takes
  traffic again, and only ``trial_requests`` consecutive healthy
  completions promote it back to healthy (one unhealthy signal
  re-ejects it);
* **a floor** — ejection never shrinks the candidate set below
  ``min_routable`` machines: a health plane must degrade into a no-op,
  never into an outage.

The monitor is deliberately RNG-free, so installing it never perturbs
any model stream and cluster runs stay CRN-aligned with and without
it. Every state transition publishes a :class:`~repro.obs.telemetry.
HealthEvent` and the monitor exports fleet gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["HealthConfig", "HealthMonitor", "HealthState", "MachineHealth"]


class HealthState:
    """Health lifecycle of one machine (orthogonal to MachineState)."""

    HEALTHY = "healthy"
    EJECTED = "ejected"
    TRIAL = "trial"


@dataclass(frozen=True)
class HealthConfig:
    """Parameters of the fleet health monitor."""

    #: EWMA latency above this marks an observation unhealthy.
    latency_threshold_ns: float = 5e6
    #: EWMA error rate above this marks an observation unhealthy.
    error_threshold: float = 0.5
    #: Smoothing factor for both passive EWMAs.
    ewma_alpha: float = 0.2
    #: Consecutive unhealthy signals before ejection (hysteresis).
    eject_after: int = 8
    #: How long an ejected machine sits out before its trial.
    readmit_after_ns: float = 5e6
    #: Consecutive healthy completions a trial machine needs to be
    #: promoted back to healthy.
    trial_requests: int = 8
    #: Active-probe cadence (0 disables probing); each sweep reads
    #: every candidate machine's instantaneous queue pressure.
    probe_interval_ns: float = 0.0
    #: Queue pressure at or above this counts as an unhealthy probe.
    probe_pressure_threshold: float = 64.0
    #: Probe sweeps are bounded so a bare ``env.run()`` still drains.
    probe_max: int = 256
    #: Never eject below this many routable candidates.
    min_routable: int = 1

    def __post_init__(self):
        if self.latency_threshold_ns <= 0:
            raise ValueError("latency_threshold_ns must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ValueError("error_threshold must be in [0, 1]")
        if self.eject_after < 1 or self.trial_requests < 1:
            raise ValueError("eject_after and trial_requests must be >= 1")
        if self.readmit_after_ns < 0 or self.probe_interval_ns < 0:
            raise ValueError("durations must be non-negative")
        if self.probe_max < 0:
            raise ValueError("probe_max must be non-negative")
        if self.min_routable < 1:
            raise ValueError("min_routable must be >= 1")


class MachineHealth:
    """Per-machine EWMA signals and health state."""

    __slots__ = (
        "config", "state", "ewma_latency_ns", "ewma_error",
        "unhealthy_streak", "ejected_at_ns", "trial_successes",
    )

    def __init__(self, config: HealthConfig):
        self.config = config
        self.state = HealthState.HEALTHY
        self.ewma_latency_ns: Optional[float] = None
        self.ewma_error = 0.0
        self.unhealthy_streak = 0
        self.ejected_at_ns: Optional[float] = None
        self.trial_successes = 0

    def update(self, latency_ns: float, ok: bool) -> bool:
        """Fold one completion into the EWMAs; True = unhealthy signal."""
        alpha = self.config.ewma_alpha
        if self.ewma_latency_ns is None:
            self.ewma_latency_ns = latency_ns
        else:
            self.ewma_latency_ns += alpha * (latency_ns - self.ewma_latency_ns)
        self.ewma_error += alpha * ((0.0 if ok else 1.0) - self.ewma_error)
        return self.unhealthy

    @property
    def unhealthy(self) -> bool:
        return (
            self.ewma_latency_ns is not None
            and self.ewma_latency_ns > self.config.latency_threshold_ns
        ) or self.ewma_error > self.config.error_threshold

    @property
    def score(self) -> float:
        """Health score in [0, 1]: 1 = clean, 0 = saturated-bad.

        The latency term is the threshold/EWMA ratio (capped at 1) and
        the error term scales it down by the EWMA error rate — a
        monotone summary for gauges and events, not a decision input
        (decisions use the thresholds + hysteresis directly).
        """
        if self.ewma_latency_ns is None or self.ewma_latency_ns <= 0:
            latency_term = 1.0
        else:
            latency_term = min(
                1.0, self.config.latency_threshold_ns / self.ewma_latency_ns
            )
        return latency_term * (1.0 - min(self.ewma_error, 1.0))


class HealthMonitor:
    """Scores fleet members and ejects lame ducks from routing."""

    def __init__(self, cluster, config: HealthConfig):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self._members: Dict[int, MachineHealth] = {}
        # Counters.
        self.ejections = 0
        self.readmissions = 0
        self.trials_failed = 0
        self.probes = 0
        if config.probe_interval_ns > 0 and config.probe_max > 0:
            self.env.process(self._prober(), name="health-prober")

    def member(self, machine) -> MachineHealth:
        health = self._members.get(machine.index)
        if health is None:
            health = MachineHealth(self.config)
            self._members[machine.index] = health
        return health

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def observe(self, machine, latency_ns: float, ok: bool) -> None:
        """Passive signal: one completion that ran on ``machine``."""
        health = self.member(machine)
        self._signal(machine, health, health.update(latency_ns, ok))

    def _signal(self, machine, health: MachineHealth, unhealthy: bool) -> None:
        """Fold one healthy/unhealthy signal through the state machine."""
        if health.state == HealthState.EJECTED:
            return  # no traffic should be here; probes skip ejected too
        if unhealthy:
            health.unhealthy_streak += 1
            if health.state == HealthState.TRIAL:
                # One bad signal fails the trial: back to the bench.
                self.trials_failed += 1
                self._eject(machine, health)
            elif health.unhealthy_streak >= self.config.eject_after:
                self._eject(machine, health)
            return
        health.unhealthy_streak = 0
        if health.state == HealthState.TRIAL:
            health.trial_successes += 1
            if health.trial_successes >= self.config.trial_requests:
                health.state = HealthState.HEALTHY
                self.readmissions += 1
                self._publish(machine, health)

    def _eject(self, machine, health: MachineHealth) -> None:
        if self._routable_candidates() <= self.config.min_routable:
            # Ejecting would leave the balancer nothing: degrade to a
            # no-op rather than manufacture an outage.
            health.unhealthy_streak = 0
            return
        health.state = HealthState.EJECTED
        health.ejected_at_ns = self.env.now
        health.unhealthy_streak = 0
        health.trial_successes = 0
        self.ejections += 1
        self._publish(machine, health)

    def _routable_candidates(self) -> int:
        """Machines currently routable *and* not health-ejected."""
        count = 0
        for machine in self.cluster.routable_machines():
            health = self._members.get(machine.index)
            if health is None or health.state != HealthState.EJECTED:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Candidate filtering (the balancer-facing surface)
    # ------------------------------------------------------------------
    def filter_routable(self, machines: List) -> List:
        """Drop ejected machines from the balancer candidate set.

        Ejected machines whose sit-out has elapsed transition to trial
        here (lazily — no timer processes to drain). If every machine
        is ejected the unfiltered set is returned: min_routable already
        bounds ejection, this is belt-and-braces for races with
        machine deaths.
        """
        now = self.env.now
        kept = []
        for machine in machines:
            health = self._members.get(machine.index)
            if health is None or health.state != HealthState.EJECTED:
                kept.append(machine)
                continue
            if (
                health.ejected_at_ns is not None
                and now - health.ejected_at_ns >= self.config.readmit_after_ns
            ):
                health.state = HealthState.TRIAL
                health.trial_successes = 0
                self._publish(machine, health)
                kept.append(machine)
        return kept if kept else machines

    # ------------------------------------------------------------------
    # Active probes
    # ------------------------------------------------------------------
    def _prober(self):
        """Bounded sweep: read queue pressure on every candidate."""
        env = self.env
        config = self.config
        for _ in range(config.probe_max):
            yield env.timeout(config.probe_interval_ns)
            self.probes += 1
            for machine in self.cluster.routable_machines():
                health = self.member(machine)
                if health.state == HealthState.EJECTED:
                    continue
                pressure = machine.queue_pressure()
                if pressure >= config.probe_pressure_threshold:
                    self._signal(machine, health, True)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _publish(self, machine, health: MachineHealth) -> None:
        bus = self.cluster.bus
        if bus is not None:
            from ..obs.telemetry import HealthEvent

            bus.publish(
                HealthEvent(
                    t_ns=self.env.now,
                    machine=machine.index,
                    state=health.state,
                    score=health.score,
                )
            )

    def counts(self) -> Dict[str, int]:
        counts = {
            HealthState.HEALTHY: 0,
            HealthState.EJECTED: 0,
            HealthState.TRIAL: 0,
        }
        for health in self._members.values():
            counts[health.state] += 1
        return counts

    def stats(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "trials_failed": self.trials_failed,
            "probes": self.probes,
            "ejected": counts[HealthState.EJECTED],
            "trial": counts[HealthState.TRIAL],
            "scores": {
                index: round(health.score, 4)
                for index, health in sorted(self._members.items())
            },
        }
