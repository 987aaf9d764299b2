"""The accelerator model: queues, input dispatcher, PEs, output queue.

Mirrors Section IV-A / Figure 6 of the paper:

* a 64-entry SRAM **input queue** with an **overflow area** in memory,
* an **input dispatcher** FSM that pairs ready entries with free PEs
  (FIFO by default; priority or deadline ordering per Section IV-C),
* 8 **PEs**, each with a scratchpad, executing non-preemptively at the
  accelerator's literature speedup over a CPU core,
* a 64-entry **output queue** into which PEs deposit results. Whoever
  orchestrates (the AccelFlow output dispatcher, a hardware manager, or
  a CPU core) consumes entries from there; the accelerator exposes a
  serialized ``output_dispatcher`` resource modelling that FSM.

The accelerator never knows about traces: it accepts
:class:`~repro.hw.ops.QueueEntry` items and triggers their ``done``
events. Chaining policy lives in :mod:`repro.orchestration`.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, List, Optional

from ..sim import (
    Environment,
    PriorityItem,
    PriorityStore,
    Resource,
    Store,
    TimeWeightedValue,
)
from .ops import QueueEntry
from .params import AcceleratorKind, MachineParams
from .tlb import TlbModel

__all__ = ["Accelerator", "QueuePolicy"]


class QueuePolicy:
    """Input-queue ordering disciplines (Section IV-C / V.1)."""

    FIFO = "fifo"
    PRIORITY = "priority"
    EDF = "edf"

    ALL = (FIFO, PRIORITY, EDF)


class _ProcessingElement:
    """One PE: tracks the tenant whose state is in its scratchpad."""

    __slots__ = ("index", "name", "last_tenant")

    def __init__(self, index: int, kind: AcceleratorKind):
        self.index = index
        #: The name of the process that runs each op on this PE, shared
        #: by every server's PE of the same kind and index.
        self.name = sys.intern(f"{kind.value}-pe{index}")
        self.last_tenant: Optional[int] = None


class Accelerator:
    """One accelerator instance (e.g. the TCP accelerator of a server)."""

    def __init__(
        self,
        env: Environment,
        kind: AcceleratorKind,
        params: MachineParams,
        tlb: TlbModel,
        policy: str = QueuePolicy.FIFO,
        tracer=None,
    ):
        if policy not in QueuePolicy.ALL:
            raise ValueError(f"unknown queue policy {policy!r}")
        self.env = env
        self.kind = kind
        self.params = params
        self.accel_params = params.accelerator
        self.speedup = params.speedup_of(kind)
        if self.speedup <= 0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")
        self.tlb = tlb
        self.policy = policy
        #: Optional :class:`repro.obs.SpanTracer`; queue-wait and PE
        #: execution spans are recorded for entries carrying a sampled
        #: request id in ``context["obs_rid"]``.
        self.tracer = tracer
        self.track = f"accel:{kind.value}"
        #: Optional :class:`repro.faults.FaultPlane`; installed by
        #: ``FaultPlane.attach``. When None (the default) no fault draws
        #: happen and execution is byte-identical to the fault-free model.
        self.fault_plane = None

        #: What an input-queue item is made from an entry: None for FIFO,
        #: whose items are the entries themselves, else a bound method
        #: that wraps the entry in a PriorityItem under its policy's key.
        self._wrap = None
        if policy == QueuePolicy.FIFO:
            self.input_queue: Store = Store(
                env, capacity=self.accel_params.input_queue_entries
            )
        else:
            self.input_queue = PriorityStore(
                env, capacity=self.accel_params.input_queue_entries
            )
            self._wrap = (
                self._wrap_priority if policy == QueuePolicy.PRIORITY
                else self._wrap_deadline
            )
        self.overflow: Store = Store(env, capacity=self.accel_params.overflow_entries)
        self.output_queue: Store = Store(
            env, capacity=self.accel_params.output_queue_entries
        )
        #: The output-dispatcher FSM: one entry processed at a time.
        self.output_dispatcher = Resource(env, capacity=1)

        self.pes: List[_ProcessingElement] = [
            _ProcessingElement(i, kind) for i in range(self.accel_params.pes)
        ]
        self._free_pes: Store = Store(env)
        for pe in self.pes:
            self._free_pes.try_put(pe)
        self._seq = itertools.count()
        self._busy_pes = TimeWeightedValue(0.0, env.now)
        accel_params = self.accel_params
        #: The constants of ``AcceleratorParams.scratchpad_transfer_ns``
        #: and ``memory_fetch_ns``, read by every op's staging.
        self._staging = (
            accel_params.inline_data_bytes,
            accel_params.queue_to_scratchpad_latency_ns,
            accel_params.queue_to_scratchpad_gbps,
            accel_params.memory_fetch_latency_ns,
            accel_params.memory_fetch_gbps,
        )
        #: Optional process factory run by a PE after depositing its
        #: output and *before* freeing itself. Centralized orchestrators
        #: (RELIEF) install their job-retirement round trip here: the PE
        #: sits idle until the manager has processed the completion, the
        #: key throughput cost of centralized scheduling. The time spent
        #: is recorded in ``entry.context["retire_ns"]``.
        self.retire_hook = None

        # Statistics.
        self.ops_completed = 0
        self.ops_rejected = 0
        self.overflow_admissions = 0
        self.tenant_wipes = 0
        self.deadline_violations = 0
        #: Summed input-queue wait of every dispatched op, and the op
        #: count: all ``mean_queue_wait_ns`` needs.
        self.queue_wait_total_ns = 0.0
        self.queue_wait_count = 0
        self.busy_ns = 0.0

        env.process(self._input_dispatcher(), name=f"in-dispatch-{kind.value}")

    # -- admission -----------------------------------------------------------
    def try_enqueue(self, entry: QueueEntry) -> bool:
        """Admit ``entry`` into the input queue or its overflow area.

        Returns False when both are full, in which case the caller must
        fall back to CPU execution (Section IV-A, deadlock avoidance).
        """
        wrap = self._wrap
        if self.input_queue.try_put(entry if wrap is None else wrap(entry)):
            return True
        if self.overflow.try_put(entry):
            entry.from_overflow = True
            self.overflow_admissions += 1
            return True
        self.ops_rejected += 1
        return False

    @property
    def input_occupancy(self) -> int:
        return len(self.input_queue) + len(self.overflow)

    def _wrap_priority(self, entry: QueueEntry) -> PriorityItem:
        return PriorityItem((entry.priority, next(self._seq)), entry)

    def _wrap_deadline(self, entry: QueueEntry) -> PriorityItem:
        # EDF: earliest absolute deadline first; no-SLO entries last.
        deadline = entry.deadline_ns if entry.deadline_ns is not None else float("inf")
        return PriorityItem((deadline, next(self._seq)), entry)

    # -- input dispatcher FSM -------------------------------------------------
    def _input_dispatcher(self):
        env = self.env
        # Queue handles are loop-invariant; hoisted so the per-entry
        # hot loop touches locals, not attribute chains.
        input_queue = self.input_queue
        overflow = self.overflow
        free_pes = self._free_pes
        wrap = self._wrap
        while True:
            item = yield input_queue.get()
            entry = item if wrap is None else item.item
            # A slot freed up: promote one overflow entry into the queue
            # (the dispatcher follows the Overflow Pointer, Section V.1).
            if overflow.items and len(input_queue.items) < input_queue.capacity:
                spilled = overflow.try_get()
                input_queue.try_put(spilled if wrap is None else wrap(spilled))
            pe = yield free_pes.get()
            env.process(self._execute(pe, entry), name=pe.name)

    def _execute(self, pe: _ProcessingElement, entry: QueueEntry):
        env = self.env
        entry.dispatch_time = now = env.now
        self.queue_wait_total_ns += now - entry.enqueue_time
        self.queue_wait_count += 1
        obs_rid = None
        if self.tracer is not None:
            obs_rid = entry.context.get("obs_rid")
            if obs_rid is not None and entry.queue_wait_ns > 0:
                self.tracer.complete(
                    "queue-wait",
                    self.track,
                    entry.enqueue_time,
                    env.now,
                    rid=obs_rid,
                    cat="queue",
                    args={"overflow": entry.from_overflow},
                )
        if entry.deadline_ns is not None and env.now > entry.deadline_ns:
            self.deadline_violations += 1
        self._busy_pes.add(1.0, env.now)
        start = env.now
        op = entry.op
        inline, spad_ns, spad_gbps, fetch_ns, fetch_gbps = self._staging
        try:
            # Move the entry's data into the PE scratchpad; spilled bytes
            # come from the memory hierarchy via the Memory Pointer. This
            # is scratchpad_transfer_ns(data_in) + memory_fetch_ns(data_in)
            # term for term; an inline payload's fetch is 0.0, and adding
            # 0.0 to a positive time changes no bit.
            data_in = op.data_in
            if data_in > inline:
                yield env.timeout(
                    (spad_ns + inline / spad_gbps)
                    + (fetch_ns + (data_in - inline) / fetch_gbps)
                )
            else:
                yield env.timeout(spad_ns + data_in / spad_gbps)
            if pe.last_tenant is not None and pe.last_tenant != entry.tenant:
                self.tenant_wipes += 1
                yield env.timeout(self.accel_params.scratchpad_wipe_ns)
            pe.last_tenant = entry.tenant
            yield env.process(self.tlb.translate())
            plane = self.fault_plane
            if plane is not None:
                # A wedged PE sits on the op before making progress; the
                # orchestrator-side watchdog decides whether to wait it
                # out or abandon the attempt and retry elsewhere.
                wedge_ns = plane.pe_wedge_ns(self)
                if wedge_ns > 0.0:
                    yield env.timeout(wedge_ns)
            # AccelOp.accel_time_ns, with the speedup checked once at
            # construction instead of once per op.
            service_ns = op.cpu_time_ns / self.speedup
            if plane is not None:
                # Gray faults stretch service time without erroring: a
                # limping machine or a slowed instance serves every op,
                # just slower. 1.0 (the overwhelmingly common case)
                # leaves the timeout byte-identical.
                factor = plane.service_factor(self)
                if factor != 1.0:
                    service_ns *= factor
            yield env.timeout(service_ns)
            if plane is not None and plane.pe_transient(self):
                # Transient fault: the result is corrupt but the entry
                # still flows through the output queue; the recovery
                # layer inspects the flag and re-executes the step.
                entry.context["fault"] = "pe-transient"
            # Deposit the result into the output queue (blocks on a full
            # queue: backpressure reaches the PE, which is non-preemptible
            # but cannot retire), staged out as scratchpad_transfer_ns
            # (data_out).
            data_out = op.data_out
            yield env.timeout(
                spad_ns + (data_out if data_out < inline else inline) / spad_gbps
            )
            yield self.output_queue.put(entry)
            if self.retire_hook is not None:
                retire_start = env.now
                yield env.process(self.retire_hook(entry))
                entry.context["retire_ns"] = env.now - retire_start
        finally:
            self.busy_ns += env.now - start
            self._busy_pes.add(-1.0, env.now)
        entry.complete_time = env.now
        self.ops_completed += 1
        if obs_rid is not None:
            self.tracer.complete(
                "exec",
                self.track,
                entry.dispatch_time,
                env.now,
                rid=obs_rid,
                cat="pe",
                args={"pe": pe.index, "bytes_in": entry.op.data_in,
                      "bytes_out": entry.op.data_out},
            )
        self._free_pes.try_put(pe)
        entry.done.succeed(entry)

    def consume_output(self, entry: QueueEntry) -> bool:
        """Retire ``entry`` from the output queue.

        Called by whoever plays the output-dispatcher role once the
        entry's results have been moved onward. Frees the slot, letting
        a PE blocked on a full output queue deposit its result.

        Every path retires its entry here, after its ``done`` has fired.
        Dropping the entry's reference to that event breaks the
        entry -> done -> value -> entry cycle, so reference counting
        frees the entry instead of the cyclic collector.
        """
        entry.done = None
        return self.output_queue.remove(entry)

    # -- statistics -------------------------------------------------------------
    @property
    def busy_pes(self) -> float:
        """Instantaneous number of busy PEs (for metrics sampling)."""
        return self._busy_pes.value

    def utilization(self) -> float:
        """Average fraction of PEs busy over the run."""
        return self._busy_pes.average(self.env.now) / len(self.pes)

    def mean_queue_wait_ns(self) -> float:
        if not self.queue_wait_count:
            return 0.0
        return self.queue_wait_total_ns / self.queue_wait_count

    def stats(self) -> Dict[str, float]:
        return {
            "ops_completed": float(self.ops_completed),
            "ops_rejected": float(self.ops_rejected),
            "overflow_admissions": float(self.overflow_admissions),
            "tenant_wipes": float(self.tenant_wipes),
            "deadline_violations": float(self.deadline_violations),
            "utilization": self.utilization(),
            "mean_queue_wait_ns": self.mean_queue_wait_ns(),
            "busy_ns": self.busy_ns,
        }
