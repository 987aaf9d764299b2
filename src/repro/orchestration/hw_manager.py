"""Centralized hardware-manager orchestration: RELIEF and the ablation
ladder of Figure 13.

The manager is a single hardware unit (modeled as a one-server queue):
every event it handles occupies it for ~1.5 us (the paper's RELIEF
number), and under load it becomes the bottleneck — exactly the effect
the paper quantifies ("for 10K RPS of a service using 87 accelerators,
the manager is busy 1.3 seconds per second").

The ladder (Figure 13) progressively moves work out of the manager:

====================  ===========================================================
variant               upgrade over the previous rung
====================  ===========================================================
``relief``            everything centralized; one queue shared by all accelerators
``per-acc-type-q``    one queue per accelerator type (admission decentralized)
``direct``            traces + direct accelerator-to-accelerator data transfers
``cntrflow``          output dispatchers resolve branches (no manager fallbacks)
(AccelFlow)           dispatchers also transform data and handle large payloads
====================  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.trace import ResolvedPath, ResolvedStep
from ..hw.noc import MEMORY_ENDPOINT
from ..hw.ops import QueueEntry
from ..workloads.request import Buckets, Request
from ..sim import Resource, Store
from .base import Orchestrator

__all__ = ["LadderConfig", "HwManagerOrchestrator", "LADDER_VARIANTS"]


@dataclass(frozen=True)
class LadderConfig:
    """Which responsibilities have moved out of the central manager."""

    name: str
    per_type_queues: bool
    direct_transfers: bool
    dispatcher_branches: bool
    dispatcher_transforms: bool


LADDER_VARIANTS = {
    "relief": LadderConfig("relief", False, False, False, False),
    "per-acc-type-q": LadderConfig("per-acc-type-q", True, False, False, False),
    "direct": LadderConfig("direct", True, True, False, False),
    "cntrflow": LadderConfig("cntrflow", True, True, True, False),
}


class HwManagerOrchestrator(Orchestrator):
    """RELIEF-style centralized manager, parameterized by ladder rung."""

    def __init__(self, *args, config: LadderConfig = None, **kwargs):
        self.config = config or LADDER_VARIANTS["relief"]
        self.name = self.config.name
        super().__init__(*args, **kwargs)
        self.manager = Resource(self.env, capacity=1)
        #: Shared step -> the step its local dispatcher runs (one per
        #: step, so the glue model's per-step table stays bounded).
        self._local_steps: Dict[ResolvedStep, ResolvedStep] = {}
        self.manager_busy_ns = 0.0
        self.manager_events = 0
        # RELIEF base: a single centralized queue shared by all 8 PEs of
        # all 9 accelerator types, modeled as a global admission budget
        # equal to one accelerator's queue depth.
        self._admission: Optional[Store] = None
        if not self.config.per_type_queues:
            depth = self.hardware.params.accelerator.input_queue_entries
            self._admission = Store(self.env)
            for _ in range(depth):
                self._admission.try_put(object())
        if not self.config.direct_transfers:
            # Centralized scheduling: a PE cannot retire its job and take
            # the next one until the manager has processed the completion
            # interrupt. This dead time is the key throughput cost of a
            # centralized manager (removed by the Direct rung's traces).
            for accel in self.hardware.all_accelerators():
                accel.retire_hook = self._retire
        if self.fault_plane is not None:
            # Manager outages are the centralized architectures' Achilles
            # heel: the single hardware unit goes dark and every
            # submission, completion and retirement queues behind it.
            # Decentralized orchestrators have no manager to lose.
            self.fault_plane.attach_manager(self)

    def _retire(self, entry):
        """Process (PE retire hook): the manager processes the completion
        and the output is copied out to memory before the accelerator can
        take its next job (no local output buffering under centralized
        scheduling)."""
        env = self.env
        with self.manager.request() as req:
            yield req
            yield env.timeout(self.costs.relief_manager_per_completion_ns)
        self.manager_busy_ns += self.costs.relief_manager_per_completion_ns
        self.manager_events += 1
        yield env.process(
            self.hardware.dma.transfer(
                entry.op.kind, MEMORY_ENDPOINT, entry.op.data_out
            )
        )

    # -- manager occupancy -------------------------------------------------
    def _manager_work(self, request: Request, duration_ns: float):
        """Process: occupy the central manager (queueing included)."""
        env = self.env
        start = env.now
        with self.manager.request() as req:
            yield req
            yield env.timeout(duration_ns)
        self.manager_busy_ns += duration_ns
        self.manager_events += 1
        request.components[Buckets.ORCHESTRATION] += env.now - start

    # -- hooks ---------------------------------------------------------------
    def submit_overhead(self, request: Request, path: ResolvedPath):
        yield from super().submit_overhead(request, path)
        yield from self._manager_work(
            request, self.costs.relief_manager_per_submission_ns
        )

    def run_step(self, request: Request, step: ResolvedStep):
        if self._admission is None:
            entry = yield from super().run_step(request, step)
            return entry
        # Centralized queue: block for a global slot first.
        env = self.env
        start = env.now
        token = yield self._admission.get()
        request.components[Buckets.QUEUE] += env.now - start
        try:
            entry = yield from super().run_step(request, step)
        finally:
            self._admission.try_put(token)
        return entry

    def after_step(
        self,
        request: Request,
        step: ResolvedStep,
        entry: QueueEntry,
        next_step: Optional[ResolvedStep],
    ):
        env = self.env
        # The per-completion manager interrupt is modeled as PE retire
        # time (see _retire); only the extra fallbacks accrue here.
        manager_ns = 0.0
        if step.branches_after:
            if self.config.dispatcher_branches:
                pass  # resolved locally; charged via glue below
            else:
                # Manager fallback per branch condition.
                manager_ns += (
                    step.branches_after * self.costs.relief_manager_per_completion_ns
                )
        if step.transforms_after and not self.config.dispatcher_transforms:
            kb = entry.op.data_out / 1024.0
            manager_ns += self.costs.relief_manager_per_completion_ns
            manager_ns += self.costs.cpu_transform_ns_per_kb * kb
        if entry.op.data_out > self.hardware.params.accelerator.inline_data_bytes:
            # Large payloads need manager help to stage the memory buffer
            # (removed only by the final AccelFlow rung).
            manager_ns += self.costs.relief_manager_large_data_ns
        if manager_ns > 0:
            yield from self._manager_work(request, manager_ns)

        if self.config.direct_transfers:
            # Trace-driven hand-off: local dispatcher does the base work
            # (and branches, on the cntrflow rung).
            local = self._local_steps.get(step)
            if local is None:
                local = self._local_steps[step] = ResolvedStep(step.kind)
                if self.config.dispatcher_branches:
                    local.branches_after = step.branches_after
                local.atm_read_after = step.atm_read_after
            start = env.now
            with entry.context["accel"].output_dispatcher.request() as disp:
                yield disp
                yield env.timeout(self.glue.record_dispatch(local, 0))
            request.components[Buckets.ORCHESTRATION] += env.now - start

        if step.notify_after:
            if self.config.direct_transfers:
                yield from self.deliver_result(request, step, entry)
            else:
                # The manager interrupts the initiating CPU core.
                start = env.now
                yield env.process(self.hardware.cores.handle_interrupt())
                request.components[Buckets.ORCHESTRATION] += env.now - start
                yield from self.deliver_result(request, step, entry)
        elif next_step is not None:
            if self.config.direct_transfers:
                yield from self.dma_to_next(request, step, entry, next_step)
            else:
                # Without trace-driven direct transfers, outputs are
                # staged through the memory hierarchy: one DMA out of the
                # producer, one into the consumer (twice the movement).
                yield from self._staged_transfer(request, step, entry, next_step)

    def _staged_transfer(self, request, step, entry, next_step):
        # The producer side already copied out to memory while the PE
        # retired (_retire); only the memory -> consumer leg remains.
        env = self.env
        start = env.now
        yield env.process(
            self.hardware.dma.transfer(
                MEMORY_ENDPOINT, next_step.kind, entry.op.data_out
            )
        )
        request.components[Buckets.COMMUNICATION] += env.now - start

    def stats(self):
        stats = super().stats()
        stats["manager_busy_ns"] = self.manager_busy_ns
        stats["manager_events"] = float(self.manager_events)
        stats["manager_utilization"] = (
            self.manager_busy_ns / self.env.now if self.env.now > 0 else 0.0
        )
        return stats
