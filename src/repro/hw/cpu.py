"""CPU core pool.

Cores execute application logic, software tax operations (in the
non-accelerated and fallback paths), orchestration work (CPU-Centric),
and receive completion notifications. The pool tracks busy time for
utilization and energy accounting.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Environment, PriorityResource, TimeWeightedValue
from .params import CpuParams

__all__ = ["CorePool"]


class CorePool:
    """The server's cores as a shared pool.

    Requests with lower ``priority`` values win the queue; interrupt
    handling uses a high-priority claim so that device completions are
    not stuck behind long application-logic segments, mimicking
    preemption at a coarse grain.
    """

    INTERRUPT_PRIORITY = 0
    NORMAL_PRIORITY = 10

    def __init__(self, env: Environment, params: CpuParams):
        self.env = env
        self.params = params
        self._cores = PriorityResource(env, capacity=params.cores)
        self._busy = TimeWeightedValue(0.0, env.now)
        self.busy_ns = 0.0
        self.executions = 0
        self.interrupts = 0

    @property
    def cores(self) -> int:
        return self.params.cores

    @property
    def in_use(self) -> int:
        return self._cores.count

    def execute(self, duration_ns: float, priority: int = None):
        """Process: hold one core for ``duration_ns``."""
        if duration_ns < 0:
            raise ValueError(f"negative duration {duration_ns}")
        if priority is None:
            priority = self.NORMAL_PRIORITY
        env = self.env
        with self._cores.request(priority=priority) as req:
            yield req
            start = env.now
            self._busy.add(1.0, start)
            try:
                yield env.timeout(duration_ns)
            finally:
                self._busy.add(-1.0, env.now)
                self.busy_ns += env.now - start
        self.executions += 1

    def handle_interrupt(self, duration_ns: float = None):
        """Process: service a device interrupt on some core."""
        if duration_ns is None:
            duration_ns = self.params.interrupt_ns
        self.interrupts += 1
        yield self.env.process(
            self.execute(duration_ns, priority=self.INTERRUPT_PRIORITY)
        )

    def notification_ns(self) -> float:
        """Cost for an accelerator to notify a core (user-level, no IRQ)."""
        return self.params.notification_ns()

    def utilization(self) -> float:
        """Average fraction of cores busy over the run."""
        return self._busy.average(self.env.now) / self.cores

    def stats(self) -> Dict[str, float]:
        return {
            "cores": float(self.cores),
            "utilization": self.utilization(),
            "busy_ns": self.busy_ns,
            "executions": float(self.executions),
            "interrupts": float(self.interrupts),
        }
