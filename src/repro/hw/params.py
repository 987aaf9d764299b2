"""Architectural parameters (paper Table III) and processor generations.

All times inside the simulator are nanoseconds. The helper
:func:`cycles_to_ns` converts cycle counts at the modeled clock.

The free constants here follow the paper wherever it gives a number
(queue depths, PE counts, DMA engines, NoC latencies, notification cost,
accelerator speedups) and are otherwise calibrated in
``repro.workloads.calibration``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (placement
    from .placement import PlacementConfig  # imports AcceleratorKind)

__all__ = [
    "AcceleratorKind",
    "ACCEL_KINDS",
    "AcceleratorParams",
    "NocParams",
    "CpuParams",
    "TlbParams",
    "AtmParams",
    "MachineParams",
    "ProcessorGeneration",
    "PROCESSOR_GENERATIONS",
    "ChipletLayout",
    "chiplet_layout",
    "DEFAULT_SPEEDUPS",
    "cycles_to_ns",
    "GHZ",
]

GHZ = 2.4  # paper: 36 cores at 2.4 GHz


def cycles_to_ns(cycles: float, ghz: float = GHZ) -> float:
    """Convert a cycle count at ``ghz`` to nanoseconds."""
    return cycles / ghz


class AcceleratorKind(enum.Enum):
    """The nine datacenter-tax accelerators of the paper (Section III)."""

    TCP = "TCP"
    ENCR = "Encr"
    DECR = "Decr"
    RPC = "RPC"
    SER = "Ser"
    DSER = "Dser"
    CMP = "Cmp"
    DCMP = "Dcmp"
    LDB = "LdB"

    #: Members are singletons that compare by identity, so they hash by
    #: identity too: ``Enum.__hash__`` would run a Python frame on every
    #: lookup keyed by a kind (routes, instances, cost tables).
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ACCEL_KINDS: Tuple[AcceleratorKind, ...] = tuple(AcceleratorKind)

#: Average speedup of each accelerator over a CPU core, from the
#: literature as cited by the paper (Section VI): F4T 3.5, QTLS 6.6,
#: Cerebros 20.5, ProtoAcc 3.8, CDPU 4.1 (decompress) / 15.2 (compress),
#: Intel DLB 8.1.
DEFAULT_SPEEDUPS: Dict[AcceleratorKind, float] = {
    AcceleratorKind.TCP: 3.5,
    AcceleratorKind.ENCR: 6.6,
    AcceleratorKind.DECR: 6.6,
    AcceleratorKind.RPC: 20.5,
    AcceleratorKind.SER: 3.8,
    AcceleratorKind.DSER: 3.8,
    AcceleratorKind.CMP: 15.2,
    AcceleratorKind.DCMP: 4.1,
    AcceleratorKind.LDB: 8.1,
}


@dataclass(frozen=True)
class AcceleratorParams:
    """Per-accelerator hardware configuration (paper Table III)."""

    pes: int = 8
    #: Accelerator instances of each kind on the package ("one or more
    #: instances of all the accelerators", Section IV-A). A core whose
    #: Enqueue fails retries with another instance of the same type.
    instances: int = 1
    input_queue_entries: int = 64
    output_queue_entries: int = 64
    scratchpad_kb: int = 64
    #: Inline data capacity of a queue entry; larger payloads spill to a
    #: software buffer reached through the entry's Memory Pointer.
    inline_data_bytes: int = 2048
    #: Queue -> scratchpad transfer: 10 ns latency, 100 GB/s bandwidth.
    queue_to_scratchpad_latency_ns: float = 10.0
    queue_to_scratchpad_gbps: float = 100.0
    #: Entries the per-queue memory overflow area can hold before trace
    #: execution must fall back to the CPU.
    overflow_entries: int = 64
    #: Cost of wiping PE state + scratchpad between tenants (ns).
    scratchpad_wipe_ns: float = 200.0
    #: Fetching the spilled part of a large (>2 KB) payload through the
    #: entry's Memory Pointer: LLC round trip plus streaming bandwidth.
    memory_fetch_latency_ns: float = 15.0
    memory_fetch_gbps: float = 50.0

    def scratchpad_transfer_ns(self, nbytes: int) -> float:
        """Time to move ``nbytes`` between a queue entry and a scratchpad."""
        inline = min(nbytes, self.inline_data_bytes)
        return self.queue_to_scratchpad_latency_ns + inline / self.queue_to_scratchpad_gbps

    def memory_fetch_ns(self, nbytes: int) -> float:
        """Time to pull the spilled part of a payload from the memory
        hierarchy via the Memory Pointer (zero if it fits inline)."""
        extra = max(0, nbytes - self.inline_data_bytes)
        if extra == 0:
            return 0.0
        return self.memory_fetch_latency_ns + extra / self.memory_fetch_gbps


@dataclass(frozen=True)
class NocParams:
    """On-package interconnect parameters (paper Table III)."""

    #: Intra-chiplet 2D mesh: 3 cycles per hop, 16-byte links.
    mesh_hop_cycles: float = 3.0
    mesh_link_bytes: int = 16
    #: Average hop count between two agents on the same chiplet mesh.
    mesh_avg_hops: float = 3.0
    #: Parallel transfers the mesh fabric sustains per chiplet.
    mesh_parallelism: int = 8
    #: Inter-chiplet: fully connected, 60 cycles.
    inter_chiplet_cycles: float = 60.0
    #: Aggregate inter-chiplet link bandwidth (GB/s). Table III says
    #: "1 Gb/s/link", which would make a 2 KB transfer take 16 us and
    #: dominate everything; we use a high aggregate figure (see DESIGN.md).
    inter_chiplet_gbps: float = 100.0

    def mesh_latency_ns(self, hops: float, ghz: float = GHZ) -> float:
        return cycles_to_ns(self.mesh_hop_cycles * hops, ghz)

    def mesh_serialization_ns(self, nbytes: int, ghz: float = GHZ) -> float:
        """Flit serialization over a 16-byte link at one flit per cycle."""
        flits = max(1, (nbytes + self.mesh_link_bytes - 1) // self.mesh_link_bytes)
        return cycles_to_ns(float(flits), ghz)

    def inter_chiplet_latency_ns(self, ghz: float = GHZ) -> float:
        return cycles_to_ns(self.inter_chiplet_cycles, ghz)

    def inter_chiplet_serialization_ns(self, nbytes: int) -> float:
        return nbytes / self.inter_chiplet_gbps


@dataclass(frozen=True)
class CpuParams:
    """Core-side parameters."""

    cores: int = 36
    ghz: float = GHZ
    #: Accelerator -> core user-level notification (80 cycles average).
    notification_cycles: float = 80.0
    #: Cost on a core of taking a device interrupt and running the
    #: completion handler (CPU-Centric orchestration, exceptions).
    interrupt_ns: float = 5000.0
    #: Cost of a user-mode Enqueue instruction plus programming the A-DMA
    #: engine that deposits the payload in the accelerator's input queue.
    enqueue_ns: float = 250.0
    #: Retries of Enqueue before the core gives up and runs the trace in
    #: software (starvation avoidance, Section IV-A).
    enqueue_max_retries: int = 3

    def notification_ns(self) -> float:
        return cycles_to_ns(self.notification_cycles, self.ghz)


@dataclass(frozen=True)
class TlbParams:
    """Per-accelerator address-translation model.

    The paper reports 3.4 D-TLB MPKI and 0.13 page faults per million
    instructions; we express both as per-operation probabilities given an
    average instruction footprint per accelerator operation.
    """

    miss_probability: float = 0.02
    walk_latency_ns: float = 100.0
    page_fault_probability: float = 2e-6
    page_fault_service_ns: float = 10000.0


@dataclass(frozen=True)
class AtmParams:
    """Accelerator Trace Memory: on-chip SRAM holding queued traces."""

    read_latency_ns: float = 20.0
    write_latency_ns: float = 20.0
    capacity_traces: int = 4096


@dataclass(frozen=True)
class ProcessorGeneration:
    """A CPU generation preset for the Fig 20 sensitivity study.

    ``app_logic_scale`` and ``tax_scale`` multiply the CPU execution time
    of application logic and datacenter-tax code respectively, relative
    to the Ice Lake baseline. Newer cores help the main service logic
    more than the memory/branch-bound tax operations (Section VII.C.4).
    """

    name: str
    app_logic_scale: float
    tax_scale: float


PROCESSOR_GENERATIONS: Dict[str, ProcessorGeneration] = {
    "haswell": ProcessorGeneration("haswell", app_logic_scale=1.55, tax_scale=1.25),
    "skylake": ProcessorGeneration("skylake", app_logic_scale=1.25, tax_scale=1.12),
    "icelake": ProcessorGeneration("icelake", app_logic_scale=1.00, tax_scale=1.00),
    "sapphire-rapids": ProcessorGeneration(
        "sapphire-rapids", app_logic_scale=0.85, tax_scale=0.95
    ),
    "emerald-rapids": ProcessorGeneration(
        "emerald-rapids", app_logic_scale=0.76, tax_scale=0.92
    ),
}


@dataclass(frozen=True)
class ChipletLayout:
    """Assignment of accelerator kinds to chiplets (cores on chiplet 0)."""

    name: str
    assignment: Dict[AcceleratorKind, int]

    @property
    def chiplet_count(self) -> int:
        return max(self.assignment.values()) + 1

    def chiplet_of(self, kind: AcceleratorKind) -> int:
        return self.assignment[kind]

    def same_chiplet(self, a: AcceleratorKind, b: AcceleratorKind) -> bool:
        return self.assignment[a] == self.assignment[b]


def _layout(name: str, groups: List[List[AcceleratorKind]]) -> ChipletLayout:
    assignment: Dict[AcceleratorKind, int] = {}
    for chiplet_id, group in enumerate(groups):
        for kind in group:
            assignment[kind] = chiplet_id
    missing = set(ACCEL_KINDS) - set(assignment)
    if missing:
        raise ValueError(f"layout {name} misses accelerators: {missing}")
    return ChipletLayout(name, assignment)


_K = AcceleratorKind

#: Chiplet organizations studied in Section VII.C.1. Chiplet 0 always
#: holds the cores and the LdB accelerator (tightly coupled with cores).
_CHIPLET_LAYOUTS: Dict[int, ChipletLayout] = {
    1: _layout(
        "1-chiplet",
        [[_K.LDB, _K.TCP, _K.ENCR, _K.DECR, _K.RPC, _K.SER, _K.DSER, _K.CMP, _K.DCMP]],
    ),
    2: _layout(
        "2-chiplets",
        [
            [_K.LDB],
            [_K.TCP, _K.ENCR, _K.DECR, _K.RPC, _K.SER, _K.DSER, _K.CMP, _K.DCMP],
        ],
    ),
    3: _layout(
        "3-chiplets",
        [
            [_K.LDB],
            [_K.TCP, _K.ENCR, _K.DECR],
            [_K.RPC, _K.SER, _K.DSER, _K.CMP, _K.DCMP],
        ],
    ),
    4: _layout(
        "4-chiplets",
        [
            [_K.LDB],
            [_K.TCP, _K.ENCR, _K.DECR],
            [_K.RPC, _K.SER, _K.DSER],
            [_K.CMP, _K.DCMP],
        ],
    ),
    6: _layout(
        "6-chiplets",
        [
            [_K.LDB],
            [_K.TCP],
            [_K.ENCR, _K.DECR],
            [_K.RPC],
            [_K.SER, _K.DSER],
            [_K.CMP, _K.DCMP],
        ],
    ),
}


def chiplet_layout(count: int) -> ChipletLayout:
    """The Section VII.C.1 layout with ``count`` chiplets."""
    try:
        return _CHIPLET_LAYOUTS[count]
    except KeyError:
        raise ValueError(
            f"no {count}-chiplet layout; choose from {sorted(_CHIPLET_LAYOUTS)}"
        ) from None


@dataclass(frozen=True)
class MachineParams:
    """Everything needed to instantiate one simulated server."""

    cpu: CpuParams = field(default_factory=CpuParams)
    accelerator: AcceleratorParams = field(default_factory=AcceleratorParams)
    noc: NocParams = field(default_factory=NocParams)
    tlb: TlbParams = field(default_factory=TlbParams)
    atm: AtmParams = field(default_factory=AtmParams)
    layout: ChipletLayout = field(default_factory=lambda: chiplet_layout(2))
    dma_engines: int = 10
    speedups: Dict[AcceleratorKind, float] = field(
        default_factory=lambda: dict(DEFAULT_SPEEDUPS)
    )
    #: Global multiplier on all accelerator speedups (Section VII.C.5).
    speedup_scale: float = 1.0
    generation: ProcessorGeneration = field(
        default_factory=lambda: PROCESSOR_GENERATIONS["icelake"]
    )
    #: Per-tenant concurrent-trace limit N (Section IV-D). Sized as an
    #: isolation knob against hoarding tenants, not a steady-state cap:
    #: it must sit above a single tenant's honest in-flight trace count.
    tenant_trace_limit: int = 128
    #: Where the accelerators live (:mod:`repro.hw.placement`). None —
    #: the default — means everything on-package with *no* placement
    #: fabric installed: byte-identical to the placement-unaware model.
    placement: Optional["PlacementConfig"] = None

    def speedup_of(self, kind: AcceleratorKind) -> float:
        return self.speedups[kind] * self.speedup_scale

    def with_pes(self, pes: int) -> "MachineParams":
        return replace(self, accelerator=replace(self.accelerator, pes=pes))

    def with_instances(self, instances: int) -> "MachineParams":
        return replace(
            self, accelerator=replace(self.accelerator, instances=instances)
        )

    def with_layout(self, chiplets: int) -> "MachineParams":
        return replace(self, layout=chiplet_layout(chiplets))

    def with_generation(self, name: str) -> "MachineParams":
        return replace(self, generation=PROCESSOR_GENERATIONS[name])

    def with_speedup_scale(self, scale: float) -> "MachineParams":
        return replace(self, speedup_scale=scale)

    def with_inter_chiplet_cycles(self, cycles: float) -> "MachineParams":
        return replace(self, noc=replace(self.noc, inter_chiplet_cycles=cycles))

    def with_placement(
        self, default="on_package", overrides=None, **kwargs
    ) -> "MachineParams":
        """Place the accelerators: a placement (name or enum) for every
        kind, plus per-kind ``overrides`` (see :mod:`repro.hw.placement`)."""
        from .placement import PlacementConfig

        return replace(
            self,
            placement=PlacementConfig.build(default, overrides, **kwargs),
        )
