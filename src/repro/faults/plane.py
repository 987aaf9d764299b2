"""The fault plane: deterministic, seeded fault injection in sim time.

One :class:`FaultPlane` serves a whole server. Hardware components hold
a reference and consult it inline: per-op draws (PE transients and
wedges, DMA stalls and corruptions), link gates through
:meth:`~FaultPlane.wait_up`, and service-time multipliers through
:meth:`~FaultPlane.service_factor` and :meth:`~FaultPlane.link_factor`.

Four categories are windowed: stuck PEs, inter-chiplet link flaps,
manager outages and gray slowdowns. Each runs as one bounded process
of the one loop :meth:`~FaultPlane._windows`: wait an exponential gap,
draw a target where the category has several, then run the category's
window body, which skips a target that is already faulted, emits, and
holds the fault. A link flap closes a gate in ``_down``; a slowdown
sets a multiplier in ``_factor``. ``*_max`` bounds every loop, so a
bare ``env.run()`` always drains.

Gray faults are slow-but-alive degradation, not fail-stop: a machine
that limps at ``gray_limp_factor`` for the whole run (one Bernoulli
draw at attach), and one accelerator instance that serves ops
``gray_slowdown_factor`` slower for a window. Nothing errors; tails
just stretch until a health plane notices.

Every category draws from its own named stream derived via
:func:`repro.sim.derive_seed`, so enabling one fault type never
perturbs another — or any pre-existing model stream — and experiment
comparisons stay common-random-number aligned. Manager outages hold the
central manager unit of the RELIEF family, which its orchestrator hands
over through :meth:`~FaultPlane.attach_manager`; :meth:`~FaultPlane.emit`
counts every injection of every category, so all fault accounting lives
in one place.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim import Environment, Event, RandomStreams
from .config import FaultConfig

__all__ = ["FaultPlane"]

#: Every injection category, as passed to :meth:`FaultPlane.emit`.
CATEGORIES = (
    "pe-transient",
    "pe-wedge",
    "pe-stuck",
    "dma-stall",
    "dma-corruption",
    "noc-flap",
    "manager-outage",
    "gray-limp",
    "gray-slowdown",
)


class FaultPlane:
    """Injects the faults described by a :class:`FaultConfig`."""

    def __init__(
        self,
        env: Environment,
        config: FaultConfig,
        streams: RandomStreams,
    ):
        config.validate()
        self.env = env
        self.config = config
        #: Optional :class:`repro.obs.TelemetryBus`; every injection is
        #: published on it as a ``FaultInjected`` event.
        self.bus = None
        self._streams = streams
        self._pe_stream = streams.stream("faults/pe")
        self._dma_stream = streams.stream("faults/dma")
        #: Flapped links: a chiplet pair ``(a, b)`` with ``a < b`` -> the
        #: gate that fires when it is back up.
        self._down: Dict[tuple, Event] = {}
        #: Open slowdowns: an accelerator instance -> its multiplier
        #: (absent = 1.0).
        self._factor: Dict[object, float] = {}
        #: Service-time multiplier of the whole machine: the limp factor
        #: when the attach-time draw made it limp, else 1.0.
        self.limp = 1.0
        #: Injections per category (surfaced through stats() and obs
        #: gauges); :meth:`emit` is the only writer.
        self.injected: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, hardware) -> None:
        """Hook this plane into one server's hardware, draw the limp and
        start the window processes."""
        for accel in hardware.all_accelerators():
            accel.fault_plane = self
        hardware.dma.fault_plane = self
        hardware.network.fault_plane = self
        config = self.config
        if config.pe_stuck_mtbf_ns > 0:
            self._start(
                "fault-stuck-pe", "faults/pe-sched", config.pe_stuck_mtbf_ns,
                config.pe_stuck_max, self._stuck_pe,
                hardware.all_accelerators(),
            )
        if config.noc_flap_interval_ns > 0:
            self._start(
                "fault-link-flap", "faults/noc", config.noc_flap_interval_ns,
                config.noc_flap_max, self._link_flap,
                sorted(hardware.network._links),
            )
        if config.gray_limp_probability > 0.0:
            machine = self._streams.stream("faults/gray-machine")
            if machine.bernoulli(config.gray_limp_probability):
                self.limp = config.gray_limp_factor
                self.emit("gray-limp", {"factor": config.gray_limp_factor})
        if config.gray_slowdown_interval_ns > 0.0:
            self._start(
                "fault-gray-slowdown", "faults/gray-accel",
                config.gray_slowdown_interval_ns, config.gray_slowdown_max,
                self._slowdown, self._slowdown_targets(hardware),
            )

    def attach_manager(self, orchestrator) -> None:
        """Start manager-outage windows against ``orchestrator``'s central
        manager unit (only the RELIEF family has one)."""
        config = self.config
        if config.manager_outage_interval_ns > 0:
            self._start(
                "fault-manager-outage", "faults/manager",
                config.manager_outage_interval_ns, config.manager_outage_max,
                lambda: self._manager_outage(orchestrator),
            )

    def emit(self, name: str, args: Optional[dict] = None) -> None:
        """Count one injection of category ``name`` and publish it as a
        ``FaultInjected`` event when a bus is attached (a session tracer
        draws it on its faults track)."""
        self.injected[name] += 1
        if self.bus is not None:
            from ..obs.telemetry import FaultInjected

            self.bus.publish(
                FaultInjected(t_ns=self.env.now, category=name, args=args)
            )

    # ------------------------------------------------------------------
    # Per-op draws (called inline by the hardware models)
    # ------------------------------------------------------------------
    def pe_wedge_ns(self, accel) -> float:
        """Extra stall this op suffers from a wedged PE (0 = none)."""
        if self.config.pe_wedge_rate <= 0.0:
            return 0.0
        if not self._pe_stream.bernoulli(self.config.pe_wedge_rate):
            return 0.0
        self.emit("pe-wedge", {"accel": accel.kind.value,
                               "ns": self.config.pe_wedge_ns})
        return self.config.pe_wedge_ns

    def pe_transient(self, accel) -> bool:
        """True when this op's result comes out corrupted (retryable)."""
        if self.config.pe_transient_rate <= 0.0:
            return False
        if not self._pe_stream.bernoulli(self.config.pe_transient_rate):
            return False
        self.emit("pe-transient", {"accel": accel.kind.value})
        return True

    def dma_stall_ns(self) -> float:
        if self.config.dma_stall_rate <= 0.0:
            return 0.0
        if not self._dma_stream.bernoulli(self.config.dma_stall_rate):
            return 0.0
        self.emit("dma-stall", {"ns": self.config.dma_stall_ns})
        return self.config.dma_stall_ns

    def dma_corrupts(self) -> bool:
        if self.config.dma_corruption_rate <= 0.0:
            return False
        if not self._dma_stream.bernoulli(self.config.dma_corruption_rate):
            return False
        self.emit("dma-corruption")
        return True

    # ------------------------------------------------------------------
    # Gates and multipliers (read inline by the hardware models)
    # ------------------------------------------------------------------
    def wait_up(self, pair):
        """Generator: wait while the inter-chiplet link ``pair`` — a
        chiplet pair ``(a, b)`` with ``a < b`` — is down."""
        while True:
            gate = self._down.get(pair)
            if gate is None:
                return
            yield gate

    def service_factor(self, accel) -> float:
        """Service-time multiplier for one op on ``accel``: the machine's
        limp times the instance's open slowdown (1.0 = clean)."""
        return self.limp * self._factor.get(accel, 1.0)

    def link_factor(self) -> float:
        """Serialization multiplier for degraded inter-chiplet links."""
        return self.config.noc_degraded_factor

    # ------------------------------------------------------------------
    # Windows (bounded processes)
    # ------------------------------------------------------------------
    def _start(self, name, stream, interval_ns, count, window, targets=None):
        """Start the window process ``name`` on the stream ``stream``."""
        self.env.process(
            self._windows(
                self._streams.stream(stream), interval_ns, count, window, targets
            ),
            name=name,
        )

    def _windows(self, stream, interval_ns, count, window, targets=None):
        """Process: at most ``count`` windows (the category's ``*_max``,
        so a bare ``env.run()`` drains), each after an exponential gap
        of mean ``interval_ns``. With ``targets``, each window draws one
        uniformly and passes it to ``window`` (an empty list opens none:
        a one-chiplet layout has no link to flap)."""
        env = self.env
        if targets is not None and not targets:
            return
        for _ in range(count):
            yield env.timeout(stream.exponential(interval_ns))
            if targets is None:
                yield from window()
            else:
                yield from window(targets[stream.randint(0, len(targets) - 1)])

    def _stuck_pe(self, accel):
        """Jam a free PE of ``accel`` for the repair window."""
        pe = accel._free_pes.try_get()
        if pe is None:
            return  # every PE busy: the fault window passes unnoticed
        config = self.config
        self.emit("pe-stuck", {"accel": accel.kind.value, "pe": pe.index,
                               "repair_ns": config.pe_repair_ns})
        yield self.env.timeout(config.pe_repair_ns)
        accel._free_pes.try_put(pe)

    def _link_flap(self, pair):
        """Take one inter-chiplet link down."""
        if pair in self._down:
            return
        ns = self.config.noc_flap_down_ns
        self.emit("noc-flap", {"link": f"{pair[0]}-{pair[1]}", "down_ns": ns})
        gate = self.env.event()
        self._down[pair] = gate
        yield self.env.timeout(ns)
        del self._down[pair]
        gate.succeed()

    def _manager_outage(self, orchestrator):
        """Hold the central manager unit busy: every submission,
        completion and retirement queues behind it."""
        ns = self.config.manager_outage_ns
        self.emit("manager-outage", {"orchestrator": orchestrator.name, "ns": ns})
        with orchestrator.manager.request() as req:
            yield req
            yield self.env.timeout(ns)

    def _slowdown_targets(self, hardware):
        """Every accelerator instance, or only the instances of
        :attr:`FaultConfig.gray_slowdown_kind` when it scopes the
        category (chaos experiments target the bottleneck kind)."""
        accels = hardware.all_accelerators()
        kind = self.config.gray_slowdown_kind
        if not kind:
            return accels
        scoped = [a for a in accels if a.kind.value == kind]
        if not scoped:
            known = sorted(a.kind.value for a in accels)
            raise ValueError(
                f"gray_slowdown_kind {kind!r} matches no accelerator on "
                f"this hardware; known kinds: {known}"
            )
        return scoped

    def _slowdown(self, accel):
        """Serve ``accel``'s ops slower; it stays alive and keeps
        accepting work."""
        if self._factor.get(accel, 1.0) > 1.0:
            return  # window already open on this instance
        config = self.config
        self.emit("gray-slowdown", {"accel": accel.kind.value,
                                    "factor": config.gray_slowdown_factor,
                                    "ns": config.gray_slowdown_ns})
        self._factor[accel] = config.gray_slowdown_factor
        yield self.env.timeout(config.gray_slowdown_ns)
        # A factor of exactly 1.0 does not count as open above, so two
        # windows may overlap on one instance and the other may have
        # closed it already.
        self._factor.pop(accel, None)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def stats(self) -> Dict[str, float]:
        stats = {name: float(count) for name, count in self.injected.items()}
        stats["total_injected"] = float(self.total_injected())
        return stats
