"""Fine-grained accelerator virtualization (Section IV-D).

Queue entries are tagged with a VMM-assigned tenant ID; PEs wipe their
scratchpads between tenants (modeled in the accelerator); and, to stop
a tenant from hoarding the ensemble, at most N traces per tenant may be
in flight at once: trace starts increment a counter, trace ends
decrement it, and a tenant at the limit cannot start new traces.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["TenantManager"]


class TenantManager:
    """Per-tenant concurrent-trace accounting with a hard limit N."""

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit
        self._active: Dict[int, int] = {}
        self.throttled = 0
        self.started = 0

    def try_start(self, tenant: int) -> bool:
        """Attempt to start a trace for ``tenant``.

        Returns False (and counts a throttle) when the tenant already
        has N traces in flight; the caller must defer or fall back.
        """
        count = self._active.get(tenant, 0)
        if count >= self.limit:
            self.throttled += 1
            return False
        self._active[tenant] = count + 1
        self.started += 1
        return True

    def end(self, tenant: int) -> None:
        """Record the completion of one of ``tenant``'s traces."""
        count = self._active.get(tenant, 0)
        if count <= 0:
            raise ValueError(f"tenant {tenant} has no active traces")
        if count == 1:
            del self._active[tenant]
        else:
            self._active[tenant] = count - 1

    @property
    def active_tenants(self) -> int:
        return len(self._active)

    def stats(self) -> Dict[str, float]:
        return {
            "limit": float(self.limit),
            "started": float(self.started),
            "throttled": float(self.throttled),
            "active_tenants": float(self.active_tenants),
        }
