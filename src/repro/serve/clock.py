"""Wall-clock pacing for the simulated fleet.

The :class:`SimClock` maps wall time onto simulated nanoseconds at a
configurable *time-dilation* factor and advances an
:class:`~repro.sim.Environment` in bounded slices between asyncio
awaits. ``dilation`` is the number of simulated seconds that elapse
per wall-clock second:

* ``dilation=1.0`` — real time: a 40 us simulated request takes 40 us
  of wall time to come back.
* ``dilation=10.0`` — the sim runs 10x faster than the wall clock
  (compressed soak runs).
* ``dilation=float("inf")`` — pacing disabled: :meth:`advance_to` steps
  the kernel synchronously with **zero** wall-clock reads, so a replay
  under ``--dilation inf`` is exactly as deterministic as a batch
  experiment run. This is how CI exercises the serving stack.

Pacing never blocks the asyncio loop for long: each catch-up step runs
through :meth:`Environment.run_wall_slice` with a wall budget, so a
backlogged simulation (one that cannot keep up with the dilated wall
clock) degrades into measured *lag* instead of a frozen event loop.
"""

from __future__ import annotations

import asyncio
import math
from time import perf_counter
from typing import Optional

from ..sim import Environment

__all__ = ["SimClock"]

_SECOND_NS = 1e9


class SimClock:
    """Paces a simulation :class:`Environment` against the wall clock."""

    def __init__(
        self,
        env: Environment,
        dilation: float = 1.0,
        tick_wall_s: float = 0.005,
        slice_wall_budget_s: float = 0.05,
    ):
        if not dilation > 0:
            raise ValueError(f"dilation must be positive, got {dilation}")
        if tick_wall_s <= 0 or slice_wall_budget_s <= 0:
            raise ValueError("tick and slice budget must be positive")
        self.env = env
        self.dilation = float(dilation)
        #: Pacing granularity: the longest single asyncio sleep taken
        #: while waiting for the wall clock to catch up.
        self.tick_wall_s = tick_wall_s
        #: Wall budget of one kernel slice (keeps the loop responsive).
        self.slice_wall_budget_s = slice_wall_budget_s
        #: True when the clock actually paces (finite dilation).
        self.paced = math.isfinite(self.dilation)
        self._wall_origin: Optional[float] = None
        self._sim_origin_ns = env.now
        #: Peak observed sim-behind-wall lag (sim ns), paced mode only.
        self.max_lag_ns = 0.0

    # -- mapping -----------------------------------------------------------
    def start(self) -> None:
        """Pin the wall origin (implicit on the first paced advance)."""
        if self._wall_origin is None:
            self._wall_origin = perf_counter()
            self._sim_origin_ns = self.env.now

    @property
    def wall_elapsed_s(self) -> float:
        """Wall seconds since :meth:`start` (0.0 before it)."""
        if self._wall_origin is None:
            return 0.0
        return perf_counter() - self._wall_origin

    def sim_target_ns(self) -> float:
        """The sim time the wall clock has currently 'paid for'."""
        if not self.paced:
            return float("inf")
        self.start()
        return self._sim_origin_ns + self.wall_elapsed_s * self.dilation * _SECOND_NS

    def wall_for_ns(self, sim_ns: float) -> float:
        """Wall seconds (since origin) at which ``sim_ns`` is due."""
        if not self.paced:
            return 0.0
        self.start()
        return (sim_ns - self._sim_origin_ns) / (self.dilation * _SECOND_NS)

    def lag_ns(self) -> float:
        """How far the sim clock trails its wall-mapped target (>= 0)."""
        if not self.paced:
            return 0.0
        return max(0.0, self.sim_target_ns() - self.env.now)

    # -- advancing ---------------------------------------------------------
    async def advance_to(self, sim_ns: float) -> None:
        """Advance the simulation to ``sim_ns``, paced by the wall clock.

        Unpaced (``dilation=inf``): a synchronous ``env.run(until=...)``
        with no wall-clock reads — fully deterministic. Paced: sleeps in
        ticks until the wall clock reaches each slice's due time, then
        steps the kernel under a wall budget; concurrent callers are
        safe (whoever advances past another caller's target simply
        satisfies it).
        """
        env = self.env
        # Clamp to "no earlier than now": advancing to the current sim
        # time still processes events *due* at it (a fresh submission
        # schedules at t == now; skipping those would spin the caller).
        target_ns = max(float(sim_ns), env.now)
        if not self.paced:
            env.run(until=target_ns)
            return
        self.start()
        while True:
            if env.now > target_ns:
                # A concurrent caller advanced the sim past our target
                # while we were parked on an await: already satisfied.
                return
            paid = self.sim_target_ns()
            if paid >= target_ns:
                # The wall clock already paid for the whole span: catch
                # up in bounded slices, yielding between them.
                reached = env.run_wall_slice(
                    target_ns, wall_budget_s=self.slice_wall_budget_s
                )
                lag = self.lag_ns()
                if lag > self.max_lag_ns:
                    self.max_lag_ns = lag
                # Yield even when the slice reached the target: a caller
                # that loops on advance_to (an open-loop injector) would
                # otherwise never await while the sim lags the wall
                # clock, and the loop could not run its stop timer.
                await asyncio.sleep(0)
                if reached:
                    return
                continue
            if paid > env.now:
                env.run_wall_slice(
                    paid, wall_budget_s=self.slice_wall_budget_s
                )
            remaining_wall = self.wall_for_ns(target_ns) - self.wall_elapsed_s
            await asyncio.sleep(
                min(self.tick_wall_s, max(remaining_wall, 0.0))
            )

    def stats(self) -> dict:
        return {
            "dilation": self.dilation,
            "paced": self.paced,
            "wall_elapsed_s": self.wall_elapsed_s,
            "sim_elapsed_ns": self.env.now - self._sim_origin_ns,
            "max_lag_ns": self.max_lag_ns,
        }
