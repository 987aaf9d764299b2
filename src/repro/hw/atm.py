"""Accelerator Trace Memory (ATM).

A special on-chip SRAM where CPU cores deposit traces ahead of time and
from which output dispatchers fetch follow-on traces without CPU
involvement (Section IV-A). Addresses are opaque integers handed out by
:meth:`AtmMemory.store`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..sim import Environment
from .params import AtmParams

__all__ = ["AtmMemory", "AtmFullError"]


class AtmFullError(Exception):
    """The ATM has no free slots for a new trace."""


class AtmMemory:
    """On-chip trace store with fixed access latencies."""

    def __init__(self, env: Environment, params: AtmParams = None):
        self.env = env
        self.params = params or AtmParams()
        self._slots: Dict[int, Any] = {}
        self._next_address = 1
        self.reads = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def capacity(self) -> int:
        return self.params.capacity_traces

    def store(self, trace: Any) -> int:
        """Instantly allocate a slot for ``trace`` and return its address.

        The (small) write latency is paid by the storing core through
        :meth:`write_latency_ns`; allocation itself is bookkeeping.
        """
        if len(self._slots) >= self.capacity:
            raise AtmFullError(f"ATM full ({self.capacity} traces)")
        address = self._next_address
        self._next_address += 1
        self._slots[address] = trace
        self.writes += 1
        return address

    def write_latency_ns(self) -> float:
        return self.params.write_latency_ns

    def peek(self, address: int) -> Any:
        """Zero-time lookup (for assertions/tests)."""
        return self._slots[address]

    def read(self, address: int):
        """Process: fetch the trace at ``address`` paying read latency."""
        if address not in self._slots:
            raise KeyError(f"no trace at ATM address {address}")
        yield self.env.timeout(self.params.read_latency_ns)
        self.reads += 1
        return self._slots[address]

    def free(self, address: int) -> None:
        """Release a slot once its trace can no longer be referenced."""
        self._slots.pop(address, None)
