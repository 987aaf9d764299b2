"""Hardware models: accelerators, dispatchers, DMA, NoC, chiplets, CPU."""

from .accelerator import Accelerator, QueuePolicy
from .atm import AtmFullError, AtmMemory
from .cpu import CorePool
from .dma import DmaPool
from .ensemble import ServerHardware
from .noc import CPU_ENDPOINT, MEMORY_ENDPOINT, Network
from .ops import AccelOp, QueueEntry
from .placement import (
    DEFAULT_HOP_MODELS,
    PLACEMENTS,
    HopModel,
    Placement,
    PlacementConfig,
    PlacementFabric,
)
from .params import (
    ACCEL_KINDS,
    DEFAULT_SPEEDUPS,
    GHZ,
    AcceleratorKind,
    AcceleratorParams,
    AtmParams,
    ChipletLayout,
    CpuParams,
    MachineParams,
    NocParams,
    PROCESSOR_GENERATIONS,
    ProcessorGeneration,
    TlbParams,
    chiplet_layout,
    cycles_to_ns,
)
from .power import AreaModel, EnergyModel, SERVER_MAX_POWER_W
from .tlb import Iommu, TlbModel

__all__ = [
    "ACCEL_KINDS",
    "AccelOp",
    "Accelerator",
    "AcceleratorKind",
    "AcceleratorParams",
    "AreaModel",
    "AtmFullError",
    "AtmMemory",
    "AtmParams",
    "CPU_ENDPOINT",
    "ChipletLayout",
    "CorePool",
    "CpuParams",
    "DEFAULT_HOP_MODELS",
    "DEFAULT_SPEEDUPS",
    "DmaPool",
    "EnergyModel",
    "GHZ",
    "HopModel",
    "Iommu",
    "MEMORY_ENDPOINT",
    "MachineParams",
    "Network",
    "NocParams",
    "PLACEMENTS",
    "PROCESSOR_GENERATIONS",
    "Placement",
    "PlacementConfig",
    "PlacementFabric",
    "ProcessorGeneration",
    "QueueEntry",
    "QueuePolicy",
    "SERVER_MAX_POWER_W",
    "ServerHardware",
    "TlbModel",
    "TlbParams",
    "chiplet_layout",
    "cycles_to_ns",
]
