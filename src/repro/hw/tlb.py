"""Address translation: per-accelerator TLBs backed by a shared IOMMU.

Accelerators operate on virtual addresses (Intel SVM-style); each has a
small translation cache and misses go to the IOMMU of its chiplet, which
performs a radix page-table walk. Page faults stop the accelerator and
interrupt a CPU core (counted; the OS service time is charged but core
contention for this rare path is not modeled).
"""

from __future__ import annotations

from typing import Dict

from ..sim import Environment, Resource, Stream
from .params import TlbParams

__all__ = ["Iommu", "TlbModel", "TranslationOutcome"]


class TranslationOutcome:
    """Result of one translation: what happened and what it cost."""

    __slots__ = ("hit", "page_fault", "latency_ns")

    def __init__(self, hit: bool, page_fault: bool, latency_ns: float):
        self.hit = hit
        self.page_fault = page_fault
        self.latency_ns = latency_ns


#: The outcome of every hit, shared: outcomes are read, never changed.
_HIT = TranslationOutcome(True, False, 0.0)


class Iommu:
    """Shared page-walker serving the TLB misses of co-located accelerators."""

    def __init__(self, env: Environment, walk_latency_ns: float, walkers: int = 4):
        self.env = env
        self.walk_latency_ns = walk_latency_ns
        self._walkers = Resource(env, capacity=walkers)
        self.walks = 0

    def walk(self):
        """Process: perform one page-table walk."""
        with self._walkers.request() as req:
            yield req
            yield self.env.timeout(self.walk_latency_ns)
        self.walks += 1


class TlbModel:
    """Probabilistic TLB for one accelerator."""

    def __init__(
        self,
        env: Environment,
        params: TlbParams,
        iommu: Iommu,
        stream: Stream,
    ):
        for p in (params.page_fault_probability, params.miss_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability must be in [0, 1], got {p}")
        self.env = env
        self.params = params
        self.iommu = iommu
        self.stream = stream
        #: Each op draws ``random() < p`` for a page fault, then for a
        #: miss: the draws of ``stream.bernoulli(p)``, with the
        #: probabilities checked here once instead of on every op.
        self._random = stream.random
        self._page_fault_p = params.page_fault_probability
        self._miss_p = params.miss_probability
        self.accesses = 0
        self.misses = 0
        self.page_faults = 0

    def translate(self):
        """Process: translate one operation's working set.

        Returns a :class:`TranslationOutcome`. Most operations hit and
        cost nothing; misses pay an IOMMU walk; rare page faults pay the
        OS service latency.
        """
        self.accesses += 1
        env = self.env
        if self._random() < self._page_fault_p:
            self.page_faults += 1
            start = env.now
            yield env.timeout(self.params.page_fault_service_ns)
            return TranslationOutcome(False, True, env.now - start)
        if self._random() < self._miss_p:
            self.misses += 1
            start = env.now
            yield env.process(self.iommu.walk())
            return TranslationOutcome(False, False, env.now - start)
        return _HIT

    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def stats(self) -> Dict[str, float]:
        return {
            "accesses": float(self.accesses),
            "misses": float(self.misses),
            "page_faults": float(self.page_faults),
            "miss_rate": self.miss_rate(),
        }
