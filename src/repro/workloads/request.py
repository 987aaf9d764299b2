"""Per-request context: identity, payload fields, latency components.

A :class:`Request` travels through the driver and the orchestrator and
accumulates its latency breakdown into named buckets, enabling the
Figure 17 decomposition (CPU / accelerators / orchestration /
communication) plus queueing and remote-dependency time. A
:class:`RequestSampler` draws new requests from seeded streams.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..sim import RandomStreams
from .calibration import BranchProbabilities
from .payloads import PayloadModel
from .spec import ServiceSpec

__all__ = ["Request", "RequestSampler", "Buckets"]

_request_ids = itertools.count()


class Buckets:
    """Latency-component bucket names."""

    CPU = "cpu"
    ACCEL = "accel"
    ORCHESTRATION = "orchestration"
    COMMUNICATION = "communication"
    QUEUE = "queue"
    REMOTE = "remote"

    ALL = (CPU, ACCEL, ORCHESTRATION, COMMUNICATION, QUEUE, REMOTE)


class Request:
    """One service invocation."""

    __slots__ = (
        "rid",
        "spec",
        "arrival_ns",
        "complete_ns",
        "state",
        "wire_size",
        "tenant",
        "priority",
        "error",
        "timed_out",
        "fell_back",
        "tcp_retries",
        "step_retries",
        "slo_deadline_ns",
        "components",
        "accelerator_ops",
    )

    def __init__(
        self,
        spec: ServiceSpec,
        arrival_ns: float,
        state: Dict[str, bool],
        wire_size: int,
        tenant: int = 0,
        priority: int = 0,
    ):
        self.rid = next(_request_ids)
        self.spec = spec
        self.arrival_ns = arrival_ns
        self.complete_ns: Optional[float] = None
        #: Payload fields that resolve the branch conditions of this
        #: request's traces (fixed at arrival; see DESIGN.md).
        self.state = state
        self.wire_size = wire_size
        self.tenant = tenant
        #: Priority class for PRIORITY-ordered accelerator queues.
        self.priority = priority
        self.error = False
        self.timed_out = False
        self.fell_back = False
        #: Remote waits retried after a lost response (recovery plane).
        self.tcp_retries = 0
        #: Accelerator step attempts retried after a fault or watchdog.
        self.step_retries = 0
        #: Absolute soft deadline when the run enforces SLOs (EDF).
        self.slo_deadline_ns: Optional[float] = None
        self.components: Dict[str, float] = {bucket: 0.0 for bucket in Buckets.ALL}
        self.accelerator_ops = 0

    def add(self, bucket: str, ns: float) -> None:
        self.components[bucket] += ns

    @property
    def completed(self) -> bool:
        return self.complete_ns is not None

    @property
    def latency_ns(self) -> float:
        if self.complete_ns is None:
            raise ValueError(f"request #{self.rid} has not completed")
        return self.complete_ns - self.arrival_ns

    def component_fraction(self, bucket: str) -> float:
        total = sum(self.components.values())
        if total <= 0:
            return 0.0
        return self.components[bucket] / total

    def __repr__(self) -> str:
        status = "done" if self.completed else "in-flight"
        return f"Request(#{self.rid}, {self.spec.name}, {status})"


class RequestSampler:
    """Samples requests: the payload fields, then the wire size.

    The fields come from the stream ``<prefix>fields`` and each
    service's wire sizes from ``<prefix>payload/<service>``, so a
    sampler with its own prefix never perturbs another's draws.
    """

    def __init__(
        self,
        streams: RandomStreams,
        branch_probs: Optional[BranchProbabilities] = None,
        prefix: str = "",
    ):
        self._streams = streams
        self._prefix = prefix
        probs = branch_probs or BranchProbabilities()
        self._field_probs = tuple(probs.as_dict().items())
        self._field_stream = streams.stream(f"{prefix}fields")
        self._payload_models: Dict[str, PayloadModel] = {}

    def sample(self, spec: ServiceSpec, arrival_ns: float) -> Request:
        """A new request for ``spec`` arriving at ``arrival_ns``."""
        bernoulli = self._field_stream.bernoulli
        state = {field: bernoulli(p) for field, p in self._field_probs}
        model = self._payload_models.get(spec.name)
        if model is None:
            model = self._payload_models[spec.name] = PayloadModel(
                self._streams.stream(f"{self._prefix}payload/{spec.name}"),
                median_bytes=spec.wire_median_bytes,
            )
        return Request(
            spec,
            arrival_ns=arrival_ns,
            state=state,
            wire_size=model.sample_wire_size(),
            tenant=spec.tenant,
            priority=spec.priority,
        )
