"""Gray faults: slow-but-alive degradation, not fail-stop.

Fail-stop faults (PR 4) either corrupt a result or hold a resource —
the failure is *visible*. Gray failures are the production-dominant
mode the disaggregated placements (PR 8) make unavoidable: a machine
that limps at 2x service time for a whole run, one accelerator
instance that intermittently serves ops 4x slower, a placement hop
whose congestion *ramps* instead of flapping. Nothing errors; tails
just stretch until a health plane notices.

Three seeded categories, all zero-rate byte-identical like every
existing fault source (the plane skips constructing :class:`GrayFaults`
entirely when no gray knob is set, and the accelerator hot path only
multiplies service time when the factor differs from 1.0):

* **machine limp** — one Bernoulli draw per server at attach time
  decides whether *every* accelerator op on that machine is inflated
  by ``gray_limp_factor``. Each machine draws from its own derived
  stream, so a fleet at probability p carries ~p limping members and
  the draw never perturbs per-op streams.
* **instance slowdown** — a bounded injector periodically picks one
  accelerator instance and serves its ops ``gray_slowdown_factor``
  slower for a window; the instance stays alive, keeps accepting work,
  and never trips a breaker by itself.
* **congestion ramp** — a bounded injector staircases one placement
  hop's crossing-time multiplier from 1 up to ``gray_ramp_peak_factor``
  and back over ``gray_ramp_ns``, in ``2 * gray_ramp_steps`` equal
  treads. Unlike the NIC congestion window (a step function), a ramp
  is the gradual-onset shape that defeats threshold-based detection.
"""

from __future__ import annotations

from typing import Dict

from ..sim import Environment, RandomStreams
from .config import FaultConfig

__all__ = ["GrayFaults"]


class GrayFaults:
    """The gray-fault half of one server's :class:`FaultPlane`.

    Only constructed when :attr:`FaultConfig.gray_enabled` is true, so
    disabled gray knobs add neither streams nor branches anywhere.
    """

    def __init__(
        self,
        env: Environment,
        config: FaultConfig,
        streams: RandomStreams,
        plane,
    ):
        self.env = env
        self.config = config
        self.plane = plane
        self._machine_stream = streams.stream("faults/gray-machine")
        self._accel_stream = streams.stream("faults/gray-accel")
        self._ramp_stream = streams.stream("faults/gray-ramp")
        #: True when this machine drew the limp at attach time.
        self.limping = False
        #: id(accel) -> slowdown factor for the open window.
        self._slow: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, hardware) -> None:
        """Draw the machine-limp fate and start bounded injectors."""
        config = self.config
        if config.gray_limp_probability > 0.0:
            if self._machine_stream.bernoulli(config.gray_limp_probability):
                self.limping = True
                self.plane.emit(
                    "gray-limp", {"factor": config.gray_limp_factor}
                )
        if config.gray_slowdown_interval_ns > 0.0:
            accels = hardware.all_accelerators()
            if config.gray_slowdown_kind:
                accels = [
                    a for a in accels
                    if a.kind.value == config.gray_slowdown_kind
                ]
                if not accels:
                    known = sorted(
                        a.kind.value for a in hardware.all_accelerators()
                    )
                    raise ValueError(
                        f"gray_slowdown_kind "
                        f"{config.gray_slowdown_kind!r} matches no "
                        f"accelerator on this hardware; known kinds: "
                        f"{known}"
                    )
            self.env.process(
                self._slowdown_injector(accels), name="fault-gray-slowdown"
            )
        # Ramps congest a placement hop, so like PCIe flaps they need a
        # fabric to bite; an all-on-package machine is byte-identical.
        if (
            config.gray_ramp_interval_ns > 0.0
            and getattr(hardware, "fabric", None) is not None
        ):
            self.env.process(self._ramp_injector(), name="fault-gray-ramp")

    # ------------------------------------------------------------------
    # Per-op factor (called inline by Accelerator._execute)
    # ------------------------------------------------------------------
    def service_factor(self, accel) -> float:
        """Service-time multiplier for one op on ``accel`` (1.0 = clean)."""
        factor = self.config.gray_limp_factor if self.limping else 1.0
        slow = self._slow.get(id(accel))
        if slow is not None:
            factor *= slow
        return factor

    # ------------------------------------------------------------------
    # Window injectors (bounded processes)
    # ------------------------------------------------------------------
    def _slowdown_injector(self, accels):
        """Periodically slow one accelerator instance for a window.

        ``accels`` is the eligible instance list — every instance on
        the machine by default, or only one kind's instances when
        :attr:`FaultConfig.gray_slowdown_kind` scopes the category
        (chaos experiments target the bottleneck kind this way).
        """
        env = self.env
        config = self.config
        stream = self._accel_stream
        for _ in range(config.gray_slowdown_max):
            yield env.timeout(
                stream.exponential(config.gray_slowdown_interval_ns)
            )
            accel = accels[stream.randint(0, len(accels) - 1)]
            key = id(accel)
            if key in self._slow:
                continue  # window already open on this instance
            self.plane.emit(
                "gray-slowdown",
                {"accel": accel.kind.value,
                 "factor": config.gray_slowdown_factor,
                 "ns": config.gray_slowdown_ns},
            )
            self._slow[key] = config.gray_slowdown_factor
            yield env.timeout(config.gray_slowdown_ns)
            del self._slow[key]

    def _ramp_injector(self):
        """Periodically staircase one placement hop up to the peak
        multiplier and back down (the gradual-onset congestion shape)."""
        from ..hw.placement import Placement

        env = self.env
        config = self.config
        stream = self._ramp_stream
        placement = Placement(config.gray_ramp_placement)
        factors = self.plane._placement_factors
        steps = config.gray_ramp_steps
        tread_ns = config.gray_ramp_ns / (2 * steps)
        rise = config.gray_ramp_peak_factor - 1.0
        for _ in range(config.gray_ramp_max):
            yield env.timeout(stream.exponential(config.gray_ramp_interval_ns))
            if factors.get(placement, 1.0) > 1.0:
                continue  # hop already congested (e.g. NIC window open)
            self.plane.emit(
                "gray-ramp",
                {"placement": placement.value,
                 "peak": config.gray_ramp_peak_factor,
                 "ns": config.gray_ramp_ns},
            )
            # Symmetric staircase: tread i sits at level min(i+1, 2s-i)
            # of s, so the hop rises to the peak, holds two treads, and
            # descends — 2s equal treads covering gray_ramp_ns exactly.
            for i in range(2 * steps):
                level = min(i + 1, 2 * steps - i)
                factors[placement] = 1.0 + rise * level / steps
                yield env.timeout(tread_ns)
            factors[placement] = 1.0
