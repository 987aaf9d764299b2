"""Open-loop arrival generators.

Two generators cover the paper's load models, and :func:`make_arrivals`
is the one place each named shape is defined:

* :class:`PoissonArrivals` — the Figure 12 load sweeps (5K/10K/15K RPS
  Poisson inter-arrivals).
* :class:`MmppArrivals` — a two-state Markov-modulated Poisson process
  used as the synthetic substitute for Alibaba's production traces
  (Fig 11), with spikier parameters for Azure's serverless traces
  (Fig 16), and with short dwells for runs of a few hundred requests.
  Real production traces alternate calm and bursty regimes; MMPP-2 is
  the standard parsimonious model of that behaviour.
"""

from __future__ import annotations

from typing import Iterator

from ..sim import Stream

__all__ = ["PoissonArrivals", "MmppArrivals", "make_arrivals"]

_SECOND_NS = 1e9


def make_arrivals(mode: str, rate_rps: float, stream: Stream):
    """Build the arrival generator for one of the named load models.

    ``"poisson"`` is the Figure 12 sweep; ``"alibaba"`` and ``"azure"``
    are fixed MMPP-2 parameterizations standing in for the respective
    production traces (Alibaba: moderate bursts; Azure Functions: rare
    but violent spikes, the idle-then-spike invocation pattern of
    serverless traffic); ``"mmpp"`` is a fixed MMPP-2 with 6x bursts and
    2 ms dwells, so a run of a few hundred requests spans several
    regimes instead of sitting inside one trace-scale 20 ms dwell. The
    server and cluster drivers and the replay and soak CLIs resolve
    their arrival mode through this factory.
    """
    if mode == "poisson":
        return PoissonArrivals(rate_rps, stream)
    if mode == "alibaba":
        return MmppArrivals(rate_rps, stream, burst_factor=5.0, burst_share=0.10)
    if mode == "azure":
        return MmppArrivals(rate_rps, stream, burst_factor=10.0, burst_share=0.06)
    if mode == "mmpp":
        return MmppArrivals(
            rate_rps, stream, burst_factor=6.0, burst_share=0.15, mean_dwell_ns=2e6
        )
    raise ValueError(f"unknown arrival mode {mode!r}")


class PoissonArrivals:
    """Exponential inter-arrival times at a fixed average rate."""

    def __init__(self, rate_rps: float, stream: Stream):
        if rate_rps <= 0:
            raise ValueError(f"rate must be positive, got {rate_rps}")
        self.rate_rps = rate_rps
        self.stream = stream

    @property
    def mean_gap_ns(self) -> float:
        return _SECOND_NS / self.rate_rps

    def next_gap_ns(self) -> float:
        return self.stream.exponential(self.mean_gap_ns)

    def gaps(self, count: int) -> Iterator[float]:
        for _ in range(count):
            yield self.next_gap_ns()


class MmppArrivals:
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *calm* state and a *burst* state;
    each state holds for an exponentially distributed dwell time and
    arrivals within a state are Poisson. The overall average rate
    equals ``rate_rps``; ``burst_factor`` sets how much faster the
    burst state is and ``burst_share`` how much of the time is bursty.
    """

    def __init__(
        self,
        rate_rps: float,
        stream: Stream,
        burst_factor: float = 4.0,
        burst_share: float = 0.15,
        mean_dwell_ns: float = 20e6,  # 20 ms regimes
    ):
        if rate_rps <= 0:
            raise ValueError(f"rate must be positive, got {rate_rps}")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 < burst_share < 1.0:
            raise ValueError("burst_share must be in (0, 1)")
        self.rate_rps = rate_rps
        self.stream = stream
        self.burst_factor = burst_factor
        self.burst_share = burst_share
        self.mean_dwell_ns = mean_dwell_ns
        # Solve calm_rate so the time-weighted average equals rate_rps.
        calm_share = 1.0 - burst_share
        self.calm_rate = rate_rps / (calm_share + burst_share * burst_factor)
        self.burst_rate = self.calm_rate * burst_factor
        self._in_burst = False
        self._state_left_ns = self._next_dwell()

    def _next_dwell(self) -> float:
        return self.stream.exponential(self.mean_dwell_ns)

    @property
    def in_burst(self) -> bool:
        return self._in_burst

    def _current_rate(self) -> float:
        return self.burst_rate if self._in_burst else self.calm_rate

    def next_gap_ns(self) -> float:
        """Next inter-arrival gap, advancing regime state as time passes."""
        gap = 0.0
        while True:
            candidate = self.stream.exponential(_SECOND_NS / self._current_rate())
            if candidate <= self._state_left_ns:
                self._state_left_ns -= candidate
                return gap + candidate
            # The regime flips before the next arrival: consume the
            # remaining dwell and re-draw in the new regime.
            gap += self._state_left_ns
            self._in_burst = not self._in_burst
            dwell = self._next_dwell()
            if self._in_burst:
                # Burst dwells are shorter in proportion to their share.
                dwell *= self.burst_share / (1.0 - self.burst_share)
            self._state_left_ns = dwell

    def gaps(self, count: int) -> Iterator[float]:
        for _ in range(count):
            yield self.next_gap_ns()
