"""Fault-injection and recovery knobs.

Every rate defaults to zero, so a default :class:`FaultConfig` is inert:
:attr:`FaultConfig.enabled` is False and no fault plane is installed.
Durations are simulated nanoseconds; rates are per-operation
probabilities; ``*_interval_ns`` values are exponential means between
injection windows; ``*_max`` values bound the number of windows one
injector process schedules, so simulations driven by a bare
``env.run()`` always drain.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FaultConfig"]


@dataclass(frozen=True)
class FaultConfig:
    """What to inject, and how hard the orchestrators fight back."""

    # -- PE faults ---------------------------------------------------------
    #: Probability an op completes with a corrupted (retryable) result.
    pe_transient_rate: float = 0.0
    #: Probability an op wedges its PE for :attr:`pe_wedge_ns` before
    #: completing (long enough to trip the dispatch watchdog).
    pe_wedge_rate: float = 0.0
    pe_wedge_ns: float = 8e6
    #: Mean time between stuck-at faults (0 disables); a stuck PE is
    #: removed from its accelerator's free pool for :attr:`pe_repair_ns`.
    pe_stuck_mtbf_ns: float = 0.0
    pe_repair_ns: float = 5e6
    pe_stuck_max: int = 8

    # -- A-DMA faults ------------------------------------------------------
    #: Probability a transfer stalls its engine for :attr:`dma_stall_ns`.
    dma_stall_rate: float = 0.0
    dma_stall_ns: float = 5e4
    #: Probability a transfer delivers corrupted data (callers that
    #: check the flag re-issue the transfer).
    dma_corruption_rate: float = 0.0

    # -- NoC faults --------------------------------------------------------
    #: Mean gap between inter-chiplet link flaps (0 disables); a flapped
    #: link blocks new transfers for :attr:`noc_flap_down_ns`.
    noc_flap_interval_ns: float = 0.0
    noc_flap_down_ns: float = 1e5
    noc_flap_max: int = 16
    #: >1 models worn links: inter-chiplet latency+serialization scale
    #: by this factor while a fault plane is installed.
    noc_degraded_factor: float = 1.0

    # -- Gray faults (slow-but-alive; see repro.faults.plane) --------------
    #: Probability that this *machine* limps: one Bernoulli draw at
    #: plane attach decides whether every accelerator op on this server
    #: is inflated by :attr:`gray_limp_factor` for the whole run. In a
    #: cluster each machine draws from its own derived stream, so a
    #: fleet at probability p carries ~p limping members.
    gray_limp_probability: float = 0.0
    gray_limp_factor: float = 2.0
    #: Mean gap between per-accelerator-instance slowdown windows
    #: (0 disables); one randomly chosen instance serves ops
    #: :attr:`gray_slowdown_factor` slower for :attr:`gray_slowdown_ns`.
    gray_slowdown_interval_ns: float = 0.0
    gray_slowdown_ns: float = 1e6
    gray_slowdown_factor: float = 4.0
    gray_slowdown_max: int = 16
    #: Scope slowdowns to one accelerator kind (e.g. ``"TCP"``); the
    #: empty string means any instance on the machine is eligible.
    #: Chaos experiments point this at the bottleneck kind so the
    #: trigger bites at every seed. Validated against the hardware at
    #: plane attach (kind names are per-architecture).
    gray_slowdown_kind: str = ""

    # -- Central hardware-manager faults (RELIEF-family only) --------------
    #: Mean gap between manager outages (0 disables); the manager unit
    #: is held busy for :attr:`manager_outage_ns` per outage, stalling
    #: every submission, completion and retirement queued behind it.
    manager_outage_interval_ns: float = 0.0
    manager_outage_ns: float = 1e6
    manager_outage_max: int = 16

    # -- Retry budget (adaptive overload control) --------------------------
    #: Token-bucket retry budget shared by every retry path of one
    #: orchestrator (step, TCP re-wait, DMA re-issue). 0 disables the
    #: budget: retries stay unconditionally bounded per attempt, the
    #: pre-budget behavior. With a budget, each retry draws one token
    #: and an empty bucket degrades the step immediately — a retry
    #: storm self-quenches instead of amplifying offered load.
    retry_budget_tokens: float = 0.0
    #: Tokens restored per simulated second (sustained retry rate).
    retry_budget_refill_per_s: float = 0.0

    # -- Recovery knobs ----------------------------------------------------
    #: Per-step dispatch watchdog: an accelerator step attempt that has
    #: not completed within this budget is interrupted and retried.
    watchdog_timeout_ns: float = 5e6
    #: Retries per step before degrading the trace suffix to the CPU.
    step_max_retries: int = 3
    #: Exponential backoff between retries: base * factor^(attempt-1),
    #: multiplied by a uniform jitter in [1-j, 1+j].
    backoff_base_ns: float = 2e3
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    #: Circuit breaker: this many failures within the rolling window
    #: trip an accelerator instance open for the cooldown.
    breaker_failure_threshold: int = 5
    breaker_window_ns: float = 5e6
    breaker_cooldown_ns: float = 10e6

    @property
    def enabled(self) -> bool:
        """True when any fault source is active (recovery knobs alone
        never warrant installing the plane)."""
        return (
            self.pe_transient_rate > 0.0
            or self.pe_wedge_rate > 0.0
            or self.pe_stuck_mtbf_ns > 0.0
            or self.dma_stall_rate > 0.0
            or self.dma_corruption_rate > 0.0
            or self.noc_flap_interval_ns > 0.0
            or self.noc_degraded_factor > 1.0
            or self.manager_outage_interval_ns > 0.0
            or self.gray_enabled
        )

    @property
    def gray_enabled(self) -> bool:
        """True when any gray (slow-but-alive) fault source is active."""
        return (
            self.gray_limp_probability > 0.0
            or self.gray_slowdown_interval_ns > 0.0
        )

    #: Every probability knob: must lie in [0, 1].
    _RATE_FIELDS = (
        "pe_transient_rate",
        "pe_wedge_rate",
        "dma_stall_rate",
        "dma_corruption_rate",
        "gray_limp_probability",
    )

    #: Every duration/interval knob: negative sim-time is always a bug
    #: (0 means "disabled" for intervals, "free" for durations).
    _DURATION_FIELDS = (
        "pe_wedge_ns",
        "pe_stuck_mtbf_ns",
        "pe_repair_ns",
        "dma_stall_ns",
        "noc_flap_interval_ns",
        "noc_flap_down_ns",
        "gray_slowdown_interval_ns",
        "gray_slowdown_ns",
        "manager_outage_interval_ns",
        "manager_outage_ns",
        "backoff_base_ns",
        "breaker_window_ns",
        "breaker_cooldown_ns",
    )

    #: Slowdown multipliers: < 1 would model speedups, not faults.
    _FACTOR_FIELDS = (
        "noc_degraded_factor",
        "gray_limp_factor",
        "gray_slowdown_factor",
    )

    def validate(self) -> None:
        for name in self._RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in self._DURATION_FIELDS:
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(
                    f"{name} must be non-negative (simulated ns), got {value}"
                )
        for name in self._FACTOR_FIELDS:
            value = getattr(self, name)
            if value < 1.0:
                raise ValueError(
                    f"{name} must be >= 1 (a slowdown multiplier), got {value}"
                )
        if self.step_max_retries < 0:
            raise ValueError("step_max_retries must be non-negative")
        if self.retry_budget_tokens < 0 or self.retry_budget_refill_per_s < 0:
            raise ValueError(
                "retry_budget_tokens and retry_budget_refill_per_s must be "
                "non-negative (0 disables the budget)"
            )
        if self.watchdog_timeout_ns <= 0:
            raise ValueError("watchdog_timeout_ns must be positive")
