"""Assembles the full server hardware: cores + accelerator ensemble.

:class:`ServerHardware` instantiates, from one :class:`MachineParams`,
the core pool, the on-package network for the configured chiplet layout,
the shared A-DMA pool, the ATM, one IOMMU per chiplet, and one
accelerator of each kind with its TLB. Orchestrators operate on this
object; workloads never touch it directly.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim import Environment, RandomStreams
from .accelerator import Accelerator, QueuePolicy
from .atm import AtmMemory
from .cpu import CorePool
from .dma import DmaPool
from .noc import Network
from .params import ACCEL_KINDS, AcceleratorKind, MachineParams
from .tlb import Iommu, TlbModel

__all__ = ["ServerHardware"]


class ServerHardware:
    """All hardware of one simulated server."""

    def __init__(
        self,
        env: Environment,
        params: MachineParams,
        streams: RandomStreams,
        queue_policy: str = QueuePolicy.FIFO,
        tracer=None,
    ):
        self.env = env
        self.params = params
        self.streams = streams
        self.queue_policy = queue_policy
        self.tracer = tracer

        self.cores = CorePool(env, params.cpu)
        self.network = Network(env, params)
        #: Placement fabric (:mod:`repro.hw.placement`), or None when
        #: every accelerator is on-package — then the DMA pool drives
        #: the NoC directly, exactly as in the placement-unaware model.
        self.fabric = None
        transport = self.network
        if params.placement is not None and params.placement.active:
            from .placement import PlacementFabric

            self.fabric = PlacementFabric(
                env, params.placement, self.network, tracer=tracer
            )
            transport = self.fabric
        self.dma = DmaPool(env, transport, engines=params.dma_engines,
                           tracer=tracer)
        self.atm = AtmMemory(env, params.atm)

        self.iommus: Dict[int, Iommu] = {
            chiplet: Iommu(env, params.tlb.walk_latency_ns)
            for chiplet in range(params.layout.chiplet_count)
        }
        self.instances: Dict[AcceleratorKind, List[Accelerator]] = {}
        for kind in ACCEL_KINDS:
            chiplet = params.layout.chiplet_of(kind)
            kind_instances = []
            for index in range(params.accelerator.instances):
                tlb = TlbModel(
                    env,
                    params.tlb,
                    self.iommus[chiplet],
                    streams.stream(f"tlb/{kind.value}/{index}"),
                )
                kind_instances.append(
                    Accelerator(env, kind, params, tlb, policy=queue_policy,
                                tracer=tracer)
                )
            self.instances[kind] = kind_instances

    @property
    def accelerators(self) -> Dict[AcceleratorKind, Accelerator]:
        """First instance of each kind (the common single-instance view)."""
        return {kind: instances[0] for kind, instances in self.instances.items()}

    def accel(self, kind: AcceleratorKind) -> Accelerator:
        """The least-occupied instance of ``kind`` (Enqueue retry target)."""
        instances = self.instances[kind]
        if len(instances) == 1:
            return instances[0]
        return min(instances, key=lambda a: a.input_occupancy)

    def all_accelerators(self) -> List[Accelerator]:
        return [a for instances in self.instances.values() for a in instances]

    # -- aggregate statistics -------------------------------------------------
    def queue_depths(self) -> Dict[AcceleratorKind, int]:
        """Instantaneous input occupancy (queue + overflow) per kind."""
        return {
            kind: sum(a.input_occupancy for a in instances)
            for kind, instances in self.instances.items()
        }

    def busy_pe_fraction(self, kind: AcceleratorKind) -> float:
        """Instantaneous fraction of this kind's PEs that are busy."""
        instances = self.instances[kind]
        total = sum(len(a.pes) for a in instances)
        busy = sum(a.busy_pes for a in instances)
        return busy / total if total else 0.0

    def accelerator_utilizations(self) -> Dict[AcceleratorKind, float]:
        return {
            kind: sum(a.utilization() for a in instances) / len(instances)
            for kind, instances in self.instances.items()
        }

    def total_ops_completed(self) -> int:
        return sum(acc.ops_completed for acc in self.all_accelerators())

    def total_fallbacks(self) -> int:
        return sum(acc.ops_rejected for acc in self.all_accelerators())

    def total_overflow_admissions(self) -> int:
        return sum(acc.overflow_admissions for acc in self.all_accelerators())

    def tlb_stats(self) -> Dict[str, float]:
        accesses = misses = faults = 0.0
        for acc in self.all_accelerators():
            stats = acc.tlb.stats()
            accesses += stats["accesses"]
            misses += stats["misses"]
            faults += stats["page_faults"]
        return {
            "accesses": accesses,
            "misses": misses,
            "page_faults": faults,
            "miss_rate": (misses / accesses) if accesses else 0.0,
        }

    def stats(self) -> Dict[str, object]:
        return {
            "cores": self.cores.stats(),
            "dma": self.dma.stats(),
            # The fabric's stats embed the NoC's plus per-placement hop
            # counters, so the report shape only grows when placements
            # are actually in play.
            "network": (
                self.network.stats() if self.fabric is None
                else self.fabric.stats()
            ),
            "tlb": self.tlb_stats(),
            "accelerators": {
                kind.value: self._kind_stats(instances)
                for kind, instances in self.instances.items()
            },
        }

    @staticmethod
    def _kind_stats(instances: List[Accelerator]) -> Dict[str, float]:
        """Aggregate stats across the instances of one kind."""
        merged: Dict[str, float] = {}
        for acc in instances:
            for key, value in acc.stats().items():
                merged[key] = merged.get(key, 0.0) + value
        merged["utilization"] /= len(instances)
        merged["mean_queue_wait_ns"] /= len(instances)
        merged["instances"] = float(len(instances))
        return merged
