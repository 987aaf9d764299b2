"""Work items that flow through accelerators.

An :class:`AccelOp` describes one fine-grained tax operation: which
accelerator kind runs it, how long a CPU core would take in software
(the accelerator divides this by its speedup, per the paper's modeling
methodology, Section VI), and the input/output payload sizes.

A :class:`QueueEntry` is the hardware queue entry wrapping an op while
it sits in an accelerator: tenant, deadlines, trace context, timestamps
and the completion event the rest of the system waits on.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from ..sim.core import _PENDING, Environment, Event  # kernel sentinel
from .params import AcceleratorKind

__all__ = ["AccelOp", "QueueEntry"]

_entry_ids = itertools.count()

#: Allocates the completion event without an ``__init__`` frame, the
#: way ``Environment.timeout`` allocates its timeout.
_new = object.__new__


class AccelOp:
    """One accelerator operation."""

    __slots__ = ("kind", "cpu_time_ns", "data_in", "data_out")

    def __init__(
        self,
        kind: AcceleratorKind,
        cpu_time_ns: float,
        data_in: int,
        data_out: int,
    ):
        if cpu_time_ns < 0:
            raise ValueError(f"negative cpu_time_ns {cpu_time_ns}")
        if data_in < 0 or data_out < 0:
            raise ValueError("payload sizes must be non-negative")
        self.kind = kind
        self.cpu_time_ns = cpu_time_ns
        self.data_in = data_in
        self.data_out = data_out

    def accel_time_ns(self, speedup: float) -> float:
        """Compute time on the accelerator, given its speedup over a core."""
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        return self.cpu_time_ns / speedup

    def __repr__(self) -> str:
        return (
            f"AccelOp({self.kind.value}, cpu={self.cpu_time_ns:.0f}ns, "
            f"in={self.data_in}B, out={self.data_out}B)"
        )


class QueueEntry:
    """An occupied input/output queue entry of an accelerator."""

    __slots__ = (
        "entry_id",
        "op",
        "tenant",
        "priority",
        "deadline_ns",
        "enqueue_time",
        "dispatch_time",
        "complete_time",
        "done",
        "context",
        "from_overflow",
    )

    def __init__(
        self,
        env: Environment,
        op: AccelOp,
        tenant: int = 0,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        self.entry_id = next(_entry_ids)
        self.op = op
        self.tenant = tenant
        self.priority = priority
        #: Absolute soft deadline for this acceleration step (Section IV-C),
        #: or None if the request carries no SLO.
        self.deadline_ns = deadline_ns
        self.enqueue_time = env.now
        self.dispatch_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: Triggered (with this entry) when the PE has deposited its
        #: output; None once the entry is retired from the output queue.
        #: A pending ``Event``, its slots filled in as ``Event.__init__``
        #: would.
        done = _new(Event)
        done.env = env
        done.callbacks = []
        done._value = _PENDING
        done._defused = False
        self.done: Optional[Event] = done
        #: Free-form carrier for orchestrator state (trace position etc.).
        self.context = context if context is not None else {}
        self.from_overflow = False

    @property
    def queue_wait_ns(self) -> float:
        if self.dispatch_time is None:
            raise ValueError("entry has not been dispatched yet")
        return self.dispatch_time - self.enqueue_time

    @property
    def service_ns(self) -> float:
        if self.complete_time is None or self.dispatch_time is None:
            raise ValueError("entry has not completed yet")
        return self.complete_time - self.dispatch_time

    def slack_ns(self, now: float) -> float:
        """Remaining slack to the deadline (inf when no SLO)."""
        if self.deadline_ns is None:
            return float("inf")
        return self.deadline_ns - now

    def __repr__(self) -> str:
        return f"QueueEntry(#{self.entry_id}, {self.op!r}, tenant={self.tenant})"
