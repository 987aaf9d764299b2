"""One member of a simulated fleet: a server plus cluster-side state.

A :class:`ClusterMachine` wraps a :class:`~repro.server.SimulatedServer`
that lives on the *cluster's* shared :class:`~repro.sim.Environment` and
adds what the control plane needs to know about it: lifecycle state
(alive / dead), the set of outstanding requests,
and the occupancy signals the load-balancing policies read.

Two occupancy signals are exposed:

* :meth:`outstanding_count` — requests dispatched here and not yet
  finished. Cheap, but inflated by requests parked on remote waits
  (which consume no local capacity).
* :meth:`queue_pressure` / :meth:`ldb_occupancy` — instantaneous
  accelerator input-queue occupancy plus busy cores, the signal the
  paper's dispatchers (and its LdB accelerator) act on. This is the
  basis of the accelerator-aware balancing policy.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hw.params import AcceleratorKind
from ..server.machine import SimulatedServer
from ..sim import Process
from ..workloads.request import Request

__all__ = ["ClusterMachine", "MachineState"]


class MachineState:
    """Lifecycle states of a fleet member."""

    ALIVE = "alive"
    DEAD = "dead"


class ClusterMachine:
    """A :class:`SimulatedServer` inside a fleet."""

    def __init__(self, index: int, server: SimulatedServer):
        self.index = index
        self.server = server
        self.env = server.env
        self.state = MachineState.ALIVE
        self.added_at_ns = self.env.now
        self.died_at_ns: Optional[float] = None
        self.dispatched = 0
        self.completed = 0
        #: ``dispatched`` frozen at death; proves no post-mortem routing.
        self.dispatched_at_death: Optional[int] = None
        #: Requests interrupted mid-flight when the machine died.
        self.killed_inflight = 0
        #: Queued fluid-tier mass on this machine (0.0 unless the
        #: cluster's fluid tier marked the machine fluid); folded into
        #: the occupancy signals so balancers see fluid work too.
        self.fluid_mass = 0.0
        self._outstanding: Dict[int, Process] = {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def routable(self) -> bool:
        """True when the balancer may send new requests here."""
        return self.state == MachineState.ALIVE

    def fail(self, cause: str = "machine-failure") -> int:
        """Kill the machine: every in-flight request is interrupted.

        Returns the number of requests that were in flight. The cluster's
        request lifecycle catches the interrupts and reroutes the work to
        surviving machines.
        """
        if self.state == MachineState.DEAD:
            return 0
        self.state = MachineState.DEAD
        self.died_at_ns = self.env.now
        self.dispatched_at_death = self.dispatched
        victims = [proc for proc in self._outstanding.values() if proc.is_alive]
        self._outstanding.clear()
        self.killed_inflight = len(victims)
        for proc in victims:
            proc.interrupt(cause)
        return len(victims)

    # -- dispatch ----------------------------------------------------------
    def submit(self, request: Request) -> Process:
        """Run ``request`` on this machine's server."""
        if self.state == MachineState.DEAD:
            raise RuntimeError(f"machine {self.index} is dead")
        proc = self.server.submit(request)
        self.dispatched += 1
        self._outstanding[request.rid] = proc
        proc.callbacks.append(
            lambda _event, rid=request.rid: self._retired(rid)
        )
        return proc

    def _retired(self, rid: int) -> None:
        # Interrupted requests were already cleared by fail(); only a
        # normally finishing request still occupies its slot here.
        if self._outstanding.pop(rid, None) is not None:
            self.completed += 1

    # -- occupancy signals -------------------------------------------------
    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding) + int(self.fluid_mass + 0.5)

    def ldb_occupancy(self) -> int:
        """Input occupancy of the load-balancing accelerator (LdB)."""
        return sum(
            accel.input_occupancy
            for accel in self.server.hardware.instances[AcceleratorKind.LDB]
        )

    def queue_pressure(self) -> float:
        """Instantaneous local pressure: accelerator queues + busy cores.

        Unlike :meth:`outstanding_count` this ignores requests parked on
        remote waits, so it measures capacity actually consumed *here*.
        """
        depths = self.server.hardware.queue_depths()
        return float(
            sum(depths.values())
            + self.server.hardware.cores.in_use
            + self.fluid_mass
        )

    # -- reporting ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "state": self.state,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "outstanding": self.outstanding_count,
            "fluid_mass": self.fluid_mass,
            "killed_inflight": self.killed_inflight,
            "added_at_ns": self.added_at_ns,
            "died_at_ns": self.died_at_ns,
        }

    def __repr__(self) -> str:
        return (
            f"ClusterMachine(#{self.index}, {self.state}, "
            f"out={self.outstanding_count})"
        )
