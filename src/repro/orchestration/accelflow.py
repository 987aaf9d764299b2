"""The AccelFlow orchestrator (Sections IV-V).

Completion handling is fully decentralized: each accelerator's output
dispatcher executes the Figure 8 flowchart — resolve branch conditions
(7 extra RISC instructions each), run data-format transformations in
its DTE (12 instructions + streaming), read follow-on traces from the
ATM (12 instructions + SRAM latency), or DMA the final result to memory
and send a user-level (non-interrupt) notification to the initiating
core (20 instructions + 80 cycles). Plain hand-offs cost the 15-
instruction base plus one A-DMA transfer into the next input queue.
No CPU core or central manager is ever on the critical path.
"""

from __future__ import annotations

from typing import Optional

from ..core.trace import ResolvedStep
from ..hw.ops import QueueEntry
from ..hw.params import cycles_to_ns
from ..workloads.request import Buckets, Request
from .base import Orchestrator

__all__ = ["AccelFlowOrchestrator", "IdealOrchestrator"]


class AccelFlowOrchestrator(Orchestrator):
    """Decentralized trace-driven orchestration."""

    name = "accelflow"

    def after_step(
        self,
        request: Request,
        step: ResolvedStep,
        entry: QueueEntry,
        next_step: Optional[ResolvedStep],
    ):
        env = self.env
        accel = entry.context["accel"]
        # The output dispatcher is a single FSM: entries serialize on it.
        start = env.now
        with accel.output_dispatcher.request() as dispatcher:
            yield dispatcher
            acquired = env.now
            yield env.timeout(self.glue.record_dispatch(step, entry.op.data_out))
            dispatched = env.now
            if step.atm_read_after:
                yield env.process(self.hardware.atm.read(self._atm_slot(step)))
        request.components[Buckets.ORCHESTRATION] += env.now - start
        if self.tracer is not None:
            rid = self._obs_rid(request)
            if rid is not None:
                self._record_dispatch_spans(
                    request, step, entry, accel, start, acquired, dispatched, rid
                )
        if step.notify_after:
            yield from self.deliver_result(request, step, entry)
        elif next_step is not None:
            yield from self.dma_to_next(request, step, entry, next_step)

    def _record_dispatch_spans(
        self, request, step, entry, accel, start, acquired, dispatched, rid
    ):
        """Break one output-dispatcher operation into nested spans."""
        env = self.env
        tracer = self.tracer
        tracer.complete(
            "output-dispatch",
            accel.track,
            start,
            env.now,
            rid=rid,
            cat="dispatch",
            args={
                "fsm_wait_ns": round(acquired - start, 1),
                "instructions": self.glue.instructions_for(step),
                "branches": step.branches_after,
                "transforms": step.transforms_after,
            },
        )
        if step.branches_after:
            branch_ns = cycles_to_ns(
                float(self.glue.BRANCH_INSTRUCTIONS * step.branches_after),
                self.glue.ghz,
            )
            tracer.complete(
                "branch-resolve", accel.track, acquired, acquired + branch_ns,
                rid=rid, cat="dispatch",
                args={"branches": step.branches_after},
            )
        if step.transforms_after:
            dte_ns = (
                step.transforms_after
                * entry.op.data_out
                / self.glue.DTE_BYTES_PER_NS
            )
            tracer.complete(
                "dte-transform", accel.track, dispatched - dte_ns, dispatched,
                rid=rid, cat="dispatch",
                args={"bytes": entry.op.data_out},
            )
        if step.atm_read_after:
            tracer.complete(
                "atm-read", accel.track, dispatched, env.now,
                rid=rid, cat="dispatch",
            )

    def _atm_slot(self, step: ResolvedStep) -> int:
        """The ATM address the dispatcher reads for the follow-on trace.

        Cores pre-install the follow-on traces before launching a chain
        (Section IV-A); we lazily install one shared slot per server so
        the read latency and access counting are exercised.
        """
        slot = getattr(self, "_atm_slot_cache", None)
        if slot is None:
            slot = self.hardware.atm.store("preinstalled-chain-traces")
            self._atm_slot_cache = slot
        return slot


class IdealOrchestrator(AccelFlowOrchestrator):
    """The Figure 14 'Ideal' system: direct accelerator-to-accelerator
    communication with no branch-resolution or data-transformation
    overheads (dispatcher work is free; DMA and queues remain)."""

    name = "ideal"

    def after_step(
        self,
        request: Request,
        step: ResolvedStep,
        entry: QueueEntry,
        next_step: Optional[ResolvedStep],
    ):
        if step.notify_after:
            yield from self.deliver_result(request, step, entry)
        elif next_step is not None:
            yield from self.dma_to_next(request, step, entry, next_step)
