"""The fault plane: deterministic, seeded fault injection in sim time.

One :class:`FaultPlane` serves a whole server. Hardware components hold
a reference and consult it inline (per-op transient/wedge/stall draws);
window-based faults (stuck PEs, link flaps, ATM outages) are injected
by bounded scheduler processes spawned from :meth:`attach`. Every
category draws from its own named stream derived via
:func:`repro.sim.derive_seed`, so enabling one fault type never
perturbs another — or any pre-existing model stream — and experiment
comparisons stay common-random-number aligned.

Manager outages are injected by :class:`~repro.orchestration.hw_manager.
HwManagerOrchestrator` itself (only that family has a manager); the
plane supplies the stream, and :meth:`FaultPlane.emit` counts every
injection of every category, so all fault accounting lives in one place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    "pcie-flap",
    "nic-congestion",
    "atm-outage",
    "manager-outage",
    "gray-limp",
    "gray-slowdown",
    "gray-ramp",
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
        self._pe_stream = streams.stream("faults/pe")
        self._pe_sched_stream = streams.stream("faults/pe-sched")
        self._dma_stream = streams.stream("faults/dma")
        self._noc_stream = streams.stream("faults/noc")
        self._atm_stream = streams.stream("faults/atm")
        self._pcie_stream = streams.stream("faults/pcie")
        self._nic_stream = streams.stream("faults/nic")
        #: Used by the hw-manager orchestrator's outage injector.
        self.manager_stream = streams.stream("faults/manager")
        #: Gray-fault half (None unless a gray knob is set, so the
        #: service-time fast path stays a single None check).
        self.gray = None
        if config.gray_enabled:
            from .gray import GrayFaults

            self.gray = GrayFaults(env, config, streams, self)

        #: Down inter-chiplet links: (chiplet, chiplet) -> back-up gate.
        self._down_links: Dict[Tuple[int, int], Event] = {}
        #: ATM outage gate (None while the SRAM is reachable).
        self._atm_gate: Optional[Event] = None
        #: Flapped placement hops: Placement -> back-up gate.
        self._down_placements: Dict[object, Event] = {}
        #: Placement -> crossing-time multiplier (>1 during congestion).
        self._placement_factors: Dict[object, float] = {}
        #: Injections per category (surfaced through stats() and obs
        #: gauges); :meth:`emit` is the only writer.
        self.injected: Dict[str, int] = dict.fromkeys(CATEGORIES, 0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, hardware) -> None:
        """Hook this plane into one server's hardware and start the
        bounded window injectors."""
        for accel in hardware.all_accelerators():
            accel.fault_plane = self
        hardware.dma.fault_plane = self
        hardware.network.fault_plane = self
        hardware.atm.fault_plane = self
        config = self.config
        if config.pe_stuck_mtbf_ns > 0:
            self.env.process(
                self._stuck_pe_injector(hardware), name="fault-stuck-pe"
            )
        if config.noc_flap_interval_ns > 0:
            self.env.process(
                self._link_flap_injector(hardware.network), name="fault-link-flap"
            )
        # Placement-hop injectors only make sense against a placement
        # fabric; an all-on-package machine has no PCIe link to flap,
        # so these knobs leave it byte-identical.
        fabric = getattr(hardware, "fabric", None)
        if fabric is not None:
            fabric.fault_plane = self
            if config.pcie_flap_interval_ns > 0:
                self.env.process(
                    self._placement_flap_injector(), name="fault-pcie-flap"
                )
            if config.nic_congestion_interval_ns > 0:
                self.env.process(
                    self._nic_congestion_injector(), name="fault-nic-congestion"
                )
        if config.atm_outage_interval_ns > 0:
            self.env.process(self._atm_outage_injector(), name="fault-atm-outage")
        if self.gray is not None:
            self.gray.attach(hardware)

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

    def service_factor(self, accel) -> float:
        """Gray service-time multiplier for one op (1.0 = clean)."""
        if self.gray is None:
            return 1.0
        return self.gray.service_factor(accel)

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
    # Gates (transfers wait out an active outage)
    # ------------------------------------------------------------------
    def link_wait(self, chip_a: int, chip_b: int):
        """Generator: wait while the (a, b) inter-chiplet link is down."""
        pair = (chip_a, chip_b) if chip_a < chip_b else (chip_b, chip_a)
        while True:
            gate = self._down_links.get(pair)
            if gate is None:
                return
            yield gate

    def link_factor(self) -> float:
        """Serialization multiplier for degraded inter-chiplet links."""
        return self.config.noc_degraded_factor

    def atm_wait(self):
        """Generator: wait while the ATM is unreachable."""
        while self._atm_gate is not None:
            yield self._atm_gate

    def placement_wait(self, placement):
        """Generator: wait while ``placement``'s hop link is flapped."""
        while True:
            gate = self._down_placements.get(placement)
            if gate is None:
                return
            yield gate

    def placement_factor(self, placement) -> float:
        """Crossing-time multiplier for ``placement`` (1.0 = healthy)."""
        return self._placement_factors.get(placement, 1.0)

    # ------------------------------------------------------------------
    # Window injectors (bounded processes)
    # ------------------------------------------------------------------
    def _stuck_pe_injector(self, hardware):
        """Periodically jam a random free PE for the repair window."""
        env = self.env
        config = self.config
        stream = self._pe_sched_stream
        accels: List = hardware.all_accelerators()
        for _ in range(config.pe_stuck_max):
            yield env.timeout(stream.exponential(config.pe_stuck_mtbf_ns))
            accel = accels[stream.randint(0, len(accels) - 1)]
            pe = accel._free_pes.try_get()
            if pe is None:
                continue  # every PE busy: the fault window passes unnoticed
            self.emit("pe-stuck", {"accel": accel.kind.value, "pe": pe.index,
                                   "repair_ns": config.pe_repair_ns})
            yield env.timeout(config.pe_repair_ns)
            accel._free_pes.try_put(pe)

    def _link_flap_injector(self, network):
        """Periodically take one inter-chiplet link down for a window."""
        env = self.env
        config = self.config
        stream = self._noc_stream
        pairs = sorted(network._links)
        if not pairs:
            return
        for _ in range(config.noc_flap_max):
            yield env.timeout(stream.exponential(config.noc_flap_interval_ns))
            pair = pairs[stream.randint(0, len(pairs) - 1)]
            if pair in self._down_links:
                continue
            self.emit("noc-flap", {"link": f"{pair[0]}-{pair[1]}",
                                   "down_ns": config.noc_flap_down_ns})
            gate = self.env.event()
            self._down_links[pair] = gate
            yield env.timeout(config.noc_flap_down_ns)
            del self._down_links[pair]
            gate.succeed()

    def _placement_flap_injector(self):
        """Periodically flap the PCIe hop link for a down window."""
        from ..hw.placement import Placement

        env = self.env
        config = self.config
        stream = self._pcie_stream
        for _ in range(config.pcie_flap_max):
            yield env.timeout(stream.exponential(config.pcie_flap_interval_ns))
            if Placement.PCIE in self._down_placements:
                continue
            self.emit("pcie-flap", {"down_ns": config.pcie_flap_down_ns})
            gate = env.event()
            self._down_placements[Placement.PCIE] = gate
            yield env.timeout(config.pcie_flap_down_ns)
            del self._down_placements[Placement.PCIE]
            gate.succeed()

    def _nic_congestion_injector(self):
        """Periodically congest the NIC hop for a stretched window."""
        from ..hw.placement import Placement

        env = self.env
        config = self.config
        stream = self._nic_stream
        for _ in range(config.nic_congestion_max):
            yield env.timeout(
                stream.exponential(config.nic_congestion_interval_ns)
            )
            if self._placement_factors.get(Placement.NIC, 1.0) > 1.0:
                continue
            self.emit(
                "nic-congestion",
                {"ns": config.nic_congestion_ns,
                 "factor": config.nic_congestion_factor},
            )
            self._placement_factors[Placement.NIC] = config.nic_congestion_factor
            yield env.timeout(config.nic_congestion_ns)
            self._placement_factors[Placement.NIC] = 1.0

    def _atm_outage_injector(self):
        """Periodically make the trace SRAM unreachable for a window."""
        env = self.env
        config = self.config
        stream = self._atm_stream
        for _ in range(config.atm_outage_max):
            yield env.timeout(stream.exponential(config.atm_outage_interval_ns))
            self.emit("atm-outage", {"ns": config.atm_outage_ns})
            gate = self.env.event()
            self._atm_gate = gate
            yield env.timeout(config.atm_outage_ns)
            self._atm_gate = None
            gate.succeed()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def stats(self) -> Dict[str, float]:
        stats = {name: float(count) for name, count in self.injected.items()}
        stats["total_injected"] = float(self.total_injected())
        return stats
