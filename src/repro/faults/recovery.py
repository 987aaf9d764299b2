"""Recovery machinery: circuit breakers, backoff, and counters.

One :class:`RecoveryPolicy` lives on each orchestrator that runs with a
fault plane. It tracks per-accelerator health with rolling-window
circuit breakers (trace building routes around tripped instances),
computes jittered exponential backoff for step/TCP/DMA retries, and
accumulates the recovery-side counters that ``orchestrator.stats()``
and the obs gauges surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Environment, Stream
from .config import FaultConfig

__all__ = ["CircuitBreaker", "RecoveryPolicy", "RetryBudget"]


class RetryBudget:
    """Token bucket bounding the *sustained* retry rate of one service.

    Fixed per-attempt retry counts are the classic metastable-failure
    ingredient: every timed-out attempt re-offers work to an already
    saturated accelerator, so amplified load outlives the trigger. A
    budget caps aggregate retries instead — each retry draws one token,
    tokens refill at ``retry_budget_refill_per_s`` per simulated second
    up to the ``retry_budget_tokens`` burst cap, and when the bucket is
    empty the step degrades to the CPU *immediately* rather than
    re-queueing. Retry storms therefore self-quench: the budget spends
    itself against the trigger, and the fleet returns to baseline as
    soon as the trigger clears.

    A zero-size bucket (the default config) disables the budget —
    :meth:`allow` always grants, preserving the pre-budget bounded-retry
    behavior byte for byte.
    """

    __slots__ = ("capacity", "refill_per_ns", "tokens", "_last_ns",
                 "granted", "denied")

    def __init__(self, capacity: float, refill_per_s: float):
        self.capacity = capacity
        self.refill_per_ns = refill_per_s / 1e9
        self.tokens = capacity
        self._last_ns = 0.0
        self.granted = 0
        self.denied = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0.0

    def _refill(self, now_ns: float) -> None:
        elapsed = now_ns - self._last_ns
        self._last_ns = now_ns
        if elapsed > 0.0 and self.refill_per_ns > 0.0:
            self.tokens = min(
                self.capacity, self.tokens + elapsed * self.refill_per_ns
            )

    def allow(self, now_ns: float) -> bool:
        """Draw one token; False means the budget is exhausted."""
        if not self.enabled:
            return True
        self._refill(now_ns)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def level(self, now_ns: float) -> float:
        """Current token count (for gauges; refills before reading)."""
        if not self.enabled:
            return 0.0
        self._refill(now_ns)
        return self.tokens


class CircuitBreaker:
    """Rolling-window failure tracker for one accelerator instance.

    Closed: requests flow. After ``breaker_failure_threshold`` failures
    inside ``breaker_window_ns`` the breaker opens: :meth:`allow`
    returns False until ``breaker_cooldown_ns`` has passed, after which
    the breaker is half-open — trial traffic is admitted, one success
    closes it, and a failed trial restarts the cooldown.
    """

    __slots__ = ("config", "failures", "opened_at")

    def __init__(self, config: FaultConfig):
        self.config = config
        self.failures: List[float] = []
        self.opened_at: Optional[float] = None

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def allow(self, now: float) -> bool:
        if self.opened_at is None:
            return True
        return now - self.opened_at >= self.config.breaker_cooldown_ns

    def record_failure(self, now: float) -> bool:
        """Register a failure; returns True when this trips the breaker."""
        window = self.config.breaker_window_ns
        self.failures = [t for t in self.failures if now - t <= window]
        self.failures.append(now)
        if self.opened_at is not None:
            if now - self.opened_at >= self.config.breaker_cooldown_ns:
                # Failed half-open trial: restart the cooldown.
                self.opened_at = now
                return True
            return False
        if len(self.failures) >= self.config.breaker_failure_threshold:
            self.opened_at = now
            return True
        return False

    def record_success(self) -> None:
        self.failures.clear()
        self.opened_at = None


class RecoveryPolicy:
    """Watchdog/retry/breaker state for one orchestrator."""

    def __init__(self, env: Environment, config: FaultConfig, stream: Stream):
        self.env = env
        self.config = config
        self.stream = stream
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: Shared token bucket for every retry path (step, TCP re-wait,
        #: DMA re-issue). Zero-capacity (the default) always grants.
        self.budget = RetryBudget(
            config.retry_budget_tokens, config.retry_budget_refill_per_s
        )
        #: Optional :class:`repro.obs.TelemetryBus`; breaker trips and
        #: closes are published as ``RecoveryEvent``s.
        self.bus = None

        # Recovery counters.
        self.watchdog_timeouts = 0
        self.step_retries = 0
        self.breaker_trips = 0
        self.degraded_to_cpu = 0
        self.dma_retries = 0
        self.dma_fatal = 0
        self.budget_denials = 0

    # ------------------------------------------------------------------
    # Accelerator health
    # ------------------------------------------------------------------
    def breaker(self, accel) -> CircuitBreaker:
        key = id(accel)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.config)
            self._breakers[key] = breaker
        return breaker

    def pick(self, instances, now: float):
        """The least-occupied healthy instance, or None if all tripped."""
        if len(instances) == 1:
            lone = instances[0]
            return lone if self.breaker(lone).allow(now) else None
        healthy = [a for a in instances if self.breaker(a).allow(now)]
        if not healthy:
            return None
        return min(healthy, key=lambda a: a.input_occupancy)

    def record_failure(self, accel) -> None:
        breaker = self.breaker(accel)
        was_open = breaker.is_open
        if breaker.record_failure(self.env.now):
            self.breaker_trips += 1
            # A failed half-open trial restarts the cooldown but the
            # breaker never closed: publish only closed->open edges.
            if not was_open:
                self._publish("breaker-open", accel)

    def record_success(self, accel) -> None:
        breaker = self.breaker(accel)
        was_open = breaker.is_open
        breaker.record_success()
        if was_open:
            self._publish("breaker-close", accel)

    def _publish(self, kind_name: str, accel) -> None:
        if self.bus is not None:
            from ..obs.telemetry import RecoveryEvent

            self.bus.publish(
                RecoveryEvent(
                    t_ns=self.env.now,
                    kind_name=kind_name,
                    args={"accel": accel.kind.value},
                )
            )

    def open_breakers(self) -> int:
        return sum(1 for b in self._breakers.values() if b.is_open)

    # ------------------------------------------------------------------
    # Retry budget
    # ------------------------------------------------------------------
    def allow_retry(self, path: str) -> bool:
        """Draw one retry token for ``path`` (``step``/``tcp``/``dma``).

        Always True when no budget is configured. A denial is counted,
        published as a ``retry-budget-exhausted`` recovery event, and
        means the caller must degrade or fail *now* instead of
        re-offering load.
        """
        if self.budget.allow(self.env.now):
            return True
        self.budget_denials += 1
        if self.bus is not None:
            from ..obs.telemetry import RecoveryEvent

            self.bus.publish(
                RecoveryEvent(
                    t_ns=self.env.now,
                    kind_name="retry-budget-exhausted",
                    args={"path": path},
                )
            )
        return False

    # ------------------------------------------------------------------
    # Backoff
    # ------------------------------------------------------------------
    def backoff_ns(self, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt`` (1-based)."""
        config = self.config
        base = config.backoff_base_ns * config.backoff_factor ** max(attempt - 1, 0)
        jitter = 1.0 + config.backoff_jitter * (2.0 * self.stream.random() - 1.0)
        return base * max(jitter, 0.0)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "watchdog_timeouts": float(self.watchdog_timeouts),
            "step_retries": float(self.step_retries),
            "breaker_trips": float(self.breaker_trips),
            "open_breakers": float(self.open_breakers()),
            "degraded_to_cpu": float(self.degraded_to_cpu),
            "dma_retries": float(self.dma_retries),
            "dma_fatal": float(self.dma_fatal),
            "budget_denials": float(self.budget_denials),
            "budget_tokens": self.budget.level(self.env.now),
        }
