"""Hardware fault injection and recovery (the resilience plane).

AccelFlow's decentralization argument is ultimately a *fault-tolerance*
argument: a system whose orchestration logic is replicated across nine
output dispatchers keeps serving requests through conditions that stall
a centralized hardware manager. This package makes that claim testable:

* :class:`FaultConfig` — a frozen, all-zeroes-by-default description of
  which faults to inject and how aggressively to recover,
* :class:`FaultPlane` — the deterministic, seeded injector threaded
  through the accelerator PEs, the A-DMA pool and the NoC links (plus
  the RELIEF manager via the orchestrator), gray slow-but-alive faults
  included (:mod:`repro.faults.plane`),
* :class:`RecoveryPolicy` / :class:`CircuitBreaker` — the dispatcher
  watchdog + bounded-retry + health-tracking machinery installed on
  every orchestrator when a fault plane is present.

When no fault plane is installed (the default), none of the hooks draw
random numbers or change any code path, so all experiment outputs stay
byte-identical to the fault-free simulator.
"""

from .._lazy import lazy_exports

__all__ = [
    "CircuitBreaker",
    "FaultConfig",
    "FaultPlane",
    "RecoveryPolicy",
    "RetryBudget",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("FaultConfig",),
    ".plane": ("FaultPlane",),
    ".recovery": ("CircuitBreaker", "RecoveryPolicy", "RetryBudget"),
})
