"""Area, power and energy model (McPAT substitute).

The paper computes area/power with McPAT at 32 nm scaled to 7 nm and
reports the aggregate results (Section VI "Area Overhead" and Section
VII.B.5). We encode those published aggregates directly and derive
energy from the simulator's busy-time statistics:

* baseline processor area 122.3 mm^2 (83.1 cores+private caches, 38.2
  LLC, 1.0 network),
* accelerator areas: Ser 0.6, Dser 0.9, Cmp 9.1, Dcmp 5.2 mm^2; TCP and
  (De)Encr like Cmp; RPC and LdB like Dser (paper's estimates),
* queues+dispatchers 3.4 mm^2, 10 A-DMA engines 1.3 mm^2, accelerator
  network 0.4 mm^2,
* max power: accelerators 12.5 W, orchestration structures 5.0 W
  (3.1% / 1.2% of server max power, i.e. server max ~= 403 W).
"""

from __future__ import annotations

from typing import Dict

from .params import AcceleratorKind

__all__ = ["AreaModel", "EnergyModel", "SERVER_MAX_POWER_W"]

#: Implied by "12.5 W is 3.1% of the maximum power of the server".
SERVER_MAX_POWER_W = 403.0

_ACCEL_AREA_MM2: Dict[AcceleratorKind, float] = {
    AcceleratorKind.SER: 0.6,
    AcceleratorKind.DSER: 0.9,
    AcceleratorKind.CMP: 9.1,
    AcceleratorKind.DCMP: 5.2,
    # Paper: TCP and (De)Encr estimated like Cmp; RPC and LdB like Dser.
    AcceleratorKind.TCP: 9.1,
    AcceleratorKind.ENCR: 9.1,
    AcceleratorKind.DECR: 9.1,
    AcceleratorKind.RPC: 0.9,
    AcceleratorKind.LDB: 0.9,
}


class AreaModel:
    """Die-area accounting (Section VI)."""

    CORES_MM2 = 83.1
    LLC_MM2 = 38.2
    CORE_NETWORK_MM2 = 1.0
    QUEUES_DISPATCHERS_MM2 = 3.4
    DMA_MM2 = 1.3
    ACCEL_NETWORK_MM2 = 0.4

    @property
    def baseline_mm2(self) -> float:
        return self.CORES_MM2 + self.LLC_MM2 + self.CORE_NETWORK_MM2

    @property
    def accelerators_mm2(self) -> float:
        return sum(_ACCEL_AREA_MM2.values())

    @property
    def orchestration_mm2(self) -> float:
        """AccelFlow-specific structures (queues, dispatchers, DMA, net)."""
        return self.QUEUES_DISPATCHERS_MM2 + self.DMA_MM2 + self.ACCEL_NETWORK_MM2

    @property
    def total_mm2(self) -> float:
        return self.baseline_mm2 + self.accelerators_mm2 + self.orchestration_mm2

    def accelerator_fraction(self) -> float:
        """Accelerators as a fraction of total processor area (~26.1%)."""
        return self.accelerators_mm2 / self.total_mm2

    def accelflow_overhead_fraction(self) -> float:
        """AccelFlow orchestration structures over total area (~2.9%)."""
        return self.orchestration_mm2 / self.total_mm2

    def breakdown(self) -> Dict[str, float]:
        return {
            "cores": self.CORES_MM2,
            "llc": self.LLC_MM2,
            "core_network": self.CORE_NETWORK_MM2,
            "accelerators": self.accelerators_mm2,
            "queues_dispatchers": self.QUEUES_DISPATCHERS_MM2,
            "dma": self.DMA_MM2,
            "accel_network": self.ACCEL_NETWORK_MM2,
            "total": self.total_mm2,
        }


class EnergyModel:
    """Power/energy accounting driven by simulator busy-time statistics."""

    ACCEL_MAX_POWER_W = 12.5
    ORCHESTRATION_MAX_POWER_W = 5.0
    CORE_ACTIVE_W = 5.5
    CORE_IDLE_W = 0.8
    ACCEL_IDLE_FRACTION = 0.1
    #: Extra memory AccelFlow adds per server (input/output queues).
    EXTRA_MEMORY_MB = 2.4

    def __init__(self):
        self.area = AreaModel()
        total_area = self.area.accelerators_mm2
        #: Per-accelerator max power, proportional to area.
        self.accel_max_w: Dict[AcceleratorKind, float] = {
            kind: self.ACCEL_MAX_POWER_W * mm2 / total_area
            for kind, mm2 in _ACCEL_AREA_MM2.items()
        }

    def core_energy_j(
        self, cores: int, elapsed_ns: float, busy_ns: float
    ) -> float:
        """Energy of the core complex over a run."""
        if elapsed_ns <= 0:
            return 0.0
        total_core_ns = cores * elapsed_ns
        idle_ns = max(0.0, total_core_ns - busy_ns)
        return (busy_ns * self.CORE_ACTIVE_W + idle_ns * self.CORE_IDLE_W) * 1e-9

    def accel_energy_j(
        self, kind: AcceleratorKind, elapsed_ns: float, busy_pe_ns: float, pes: int
    ) -> float:
        """Energy of one accelerator: active while a PE computes."""
        if elapsed_ns <= 0:
            return 0.0
        max_w = self.accel_max_w[kind]
        per_pe_w = max_w / pes
        idle_ns = max(0.0, pes * elapsed_ns - busy_pe_ns)
        idle_w = per_pe_w * self.ACCEL_IDLE_FRACTION
        return (busy_pe_ns * per_pe_w + idle_ns * idle_w) * 1e-9

    def orchestration_energy_j(
        self, elapsed_ns: float, dma_busy_ns: float, dispatcher_ops: int
    ) -> float:
        """Energy of queues/dispatchers/DMA/network.

        Modeled as a static floor (10% of max) plus activity terms: DMA
        busy time at the orchestration power budget, and a small fixed
        energy per dispatcher operation.
        """
        static_j = self.ORCHESTRATION_MAX_POWER_W * 0.1 * elapsed_ns * 1e-9
        dma_j = self.ORCHESTRATION_MAX_POWER_W * 0.5 * dma_busy_ns * 1e-9
        per_op_j = 2e-9  # 2 nJ per dispatcher operation
        return static_j + dma_j + dispatcher_ops * per_op_j

    def performance_per_watt(
        self, requests: int, elapsed_ns: float, total_energy_j: float
    ) -> float:
        """Requests per joule-second normalization: RPS / W."""
        if elapsed_ns <= 0 or total_energy_j <= 0:
            return 0.0
        elapsed_s = elapsed_ns * 1e-9
        watts = total_energy_j / elapsed_s
        return (requests / elapsed_s) / watts
